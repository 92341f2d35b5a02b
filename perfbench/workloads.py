"""The benchmark's three workloads, driven through the program's public API.

Each workload has a ``setup`` (timed separately as ``setup_s``) that builds
the inputs a round needs, and a ``round`` that does the measured work once
and returns a :class:`Round`.  Every round starts from fresh executors over
a fresh ``ScheduleCache()`` (never the process-wide default cache), so a
second round in the same process times the same cold or warm path as the
first.  A round times its work in named chunks (one model's compile, one
replay); checks run outside the timed chunks and record into :class:`Ops`.
An exception propagates and fails the run.

* ``compile_cold`` — exhaustive cold compile of the whole zoo with IR build,
  analyzer gate and CUDA codegen; then a seeded functional check of chosen
  schedules in the interpreter.
* ``tune_guided`` — seeded cost model, guided compiles of bert then gpt2 on
  one cache/clock/model, then the record log round trip.
* ``serve_warm`` — warm restart of a serving registry from a record log made
  in setup, then open-loop replays on the simulated clock.
"""
from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import repro.backend.codegen as codegen
import repro.backend.interpreter as interpreter
import repro.runtime.cache as runtime_cache
import repro.tune as tune
from repro.core.schedule import MatmulSchedule
from repro.experiments.serving import (DECODE_SMOKE_CONFIG, SMOKE_MODELS,
                                       build_registry, decode_cost_model)
from repro.gpusim.clock import SimulatedClock
from repro.gpusim.device import RTX3090
from repro.models import MODEL_BUILDERS, for_batch, gpt2_kv_bytes_per_token
from repro.obs import Telemetry, percentile
from repro.runtime import HidetExecutor, ScheduleCache
from repro.sched.matmul_template import build_matmul_module
from repro.serve import (BATCH_OVERHEAD_SECONDS, BatchingPolicy, DecodePolicy,
                         ModelRegistry)
from repro.serve.simulator import DecodeSimulator, ServerSimulator
from repro.serve.trace import decode_trace, poisson_trace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: logs and traces go here (git-ignored), never elsewhere in the tree
OUT_DIR = os.path.join(ROOT, 'perfbench', 'out')

DEVICE = RTX3090
COLD_MODELS = tuple(MODEL_BUILDERS)              # the five-model zoo
TUNE_MODELS = ('bert', 'gpt2')                   # guided trajectory order
#: serving mix: paper-shape resnet50 next to the smoke-shape bert; the
#: smoke-shape gpt2 decoder feeds the decode replay
SERVE_MODELS = {'resnet50': {}, 'bert': dict(SMOKE_MODELS['bert'])}
DECODE_CONFIG = dict(DECODE_SMOKE_CONFIG)
LADDER = (1, 2, 4, 8)
RATE_MULTIPLES = (0.5, 1.0, 1.5, 2.0, 3.0)       # x batch-1 capacity
REFERENCE_MULTIPLE = 1.0
P99_LIMIT_MS = 50.0
SERVE_REQUESTS = 12_000                          # per Poisson replay
DECODE_REQUESTS = 2_000
DECODE_MAX_TOKENS = 48
KERNEL_SAMPLES = 2                               # chosen schedules checked
BASELINE_FILE = os.path.join(ROOT, 'BENCH_tuning.json')
#: simulated results and work counts under this prefix come from the seeded
#: traces; every other one is the same for every seed
SEEDED_PREFIX = 'replay.'


class Ops:
    """Attempted and failed operations (compiles, kernel checks, cache round
    trips, replays); each failure keeps a one-line reason."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = '') -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f'{name}: {detail}' if detail else name)
        return ok


class PhaseClock:
    """The timed chunks of a round: ``(phase, chunk, start, end)`` on the
    ``perf_counter`` clock.

    With a span recorder attached it also sums the part of the timed chunks
    that root spans cover, which is the traced run's attribution.
    """

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.intervals: list[tuple[str, str, float, float]] = []
        self.covered = 0.0

    @contextmanager
    def phase(self, name: str, chunk: str):
        covered = self.recorder.root_seconds if self.recorder else 0.0
        start = perf_counter()
        try:
            yield
        finally:
            self.intervals.append((name, chunk, start, perf_counter()))
            if self.recorder:
                self.covered += self.recorder.root_seconds - covered

    def seconds(self, chunk: str) -> float:
        """Wall seconds of one chunk."""
        return sum(end - start for _, name, start, end in self.intervals
                   if name == chunk)


@dataclass
class Round:
    """One measured round: timed chunks, simulated results, work counts."""

    intervals: list                  # PhaseClock.intervals
    ops: int                         # units of work ops_per_s counts
    total_s: float                   # the whole round, checks included
    sim: dict = field(default_factory=dict)     # deterministic, sim clock
    work: dict = field(default_factory=dict)    # deterministic work counts
    host: dict = field(default_factory=dict)    # per-layer figures
    named: dict = field(default_factory=dict)   # simulated end-to-end figures


def fixed_results(rnd: Round) -> dict:
    """A round's seed-independent simulated results and work counts, as
    ``sim.<key>`` and ``work.<key>``: the figures ``expected.json`` pins."""
    return {f'{kind}.{key}': value
            for kind, values in (('sim', rnd.sim), ('work', rnd.work))
            for key, value in sorted(values.items())
            if not key.startswith(SEEDED_PREFIX)}


def _modules(compiled) -> list:
    """Distinct IR modules of a compiled graph, in op order."""
    seen: dict[int, object] = {}
    for op in compiled.ops:
        if op.module is not None:
            seen.setdefault(id(op.module), op.module)
    return list(seen.values())


def _temp_dir() -> tempfile.TemporaryDirectory:
    os.makedirs(OUT_DIR, exist_ok=True)
    return tempfile.TemporaryDirectory(prefix='tmp-', dir=OUT_DIR)


# -- compile_cold -------------------------------------------------------------

class CompileCold:
    """Exhaustive cold compile of the zoo: measure loop, IR, analyzer, codegen.

    The cost model, the disk cache and serving sit idle.
    """

    name = 'compile_cold'
    compile_phase, compile_name = 'compile', 'compile_s'
    ops_phase, ops_name, ops_unit = 'compile', 'groups_per_s', 'groups/host-s'

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> dict:
        with open(BASELINE_FILE) as f:
            baseline = json.load(f)['metrics']
        return {'graphs': {name: MODEL_BUILDERS[name]() for name in COLD_MODELS},
                'resnet50_cold_s':
                    baseline['resnet50.cold_compile_seconds']['value']}

    def round(self, state: dict, ops: Ops, clock: PhaseClock) -> Round:
        t_round = perf_counter()
        compiled = {}
        sim: dict = {}
        work: dict = {}
        for name, graph in state['graphs'].items():
            cache = ScheduleCache()
            ops.check(f'{name} cache starts empty',
                      len(cache) == 0 and cache.measurement_count == 0)
            with clock.phase('compile', name):
                executor = HidetExecutor(DEVICE, cache=cache, build_ir=True,
                                         check_ir=True)
                graph_c = executor.compile(graph, name=name)
                code_bytes = sum(len(codegen.generate_cuda_module(m))
                                 for m in _modules(graph_c))
            ops.check(f'{name} compile behind the analyzer gate',
                      executor.check_ir and code_bytes > 0)
            report = graph_c.compile_report
            compiled[name] = graph_c
            sim[f'{name}.tuning_s'] = graph_c.tuning_seconds
            sim[f'{name}.latency_ms'] = graph_c.latency_ms
            work.update({f'{name}.hits': report.cache_hits,
                         f'{name}.misses': report.cache_misses,
                         f'{name}.measurements': report.measurements,
                         f'{name}.tuned_tasks': report.tuned_tasks,
                         f'{name}.groups': len(graph_c.ops),
                         f'{name}.modules': len(_modules(graph_c)),
                         f'{name}.cuda_bytes': code_bytes})

        ops.check('resnet50 cold tuning matches BENCH_tuning.json',
                  sim['resnet50.tuning_s'] == state['resnet50_cold_s'],
                  f"{sim['resnet50.tuning_s']} != {state['resnet50_cold_s']}")
        work.update(self._check_kernels(compiled, ops))
        reports = [c.compile_report for c in compiled.values()]
        groups = sum(len(c.ops) for c in compiled.values())
        modules = sum(len(_modules(c)) for c in compiled.values())
        work.update({'runtime.cache.hits': sum(r.cache_hits for r in reports),
                     'runtime.cache.misses': sum(r.cache_misses
                                                 for r in reports),
                     'sched.ir_reuse_ratio': 1.0 - modules / groups})
        sim_tuning = sum(c.tuning_seconds for c in compiled.values())
        latency = sum(c.latency_ms for c in compiled.values())
        del compiled
        return Round(
            intervals=clock.intervals, ops=groups,
            total_s=perf_counter() - t_round, sim=sim, work=work,
            named={'model_latency_ms': (latency, 'ms (sim)'),
                   'sim_tuning_s': (sim_tuning, 's (sim)')},
            host={'sim.model_latency_ms': latency,
                  'sim.tuning_s': sim_tuning})

    def _check_kernels(self, compiled: dict, ops: Ops) -> dict:
        """Build a seeded sample of the chosen matmul schedules at a small,
        awkward shape, run them in the interpreter, compare with numpy."""
        chosen = sorted({op.schedule for c in compiled.values()
                         for op in c.ops
                         if isinstance(op.schedule, MatmulSchedule)}, key=repr)
        rng = np.random.default_rng(self.seed)
        picks = rng.choice(len(chosen), size=min(KERNEL_SAMPLES, len(chosen)),
                           replace=False)
        mismatches = 0
        for index in sorted(int(i) for i in picks):
            sched = chosen[index]
            m = int(rng.integers(17, 48))
            n = int(rng.integers(9, 40))
            k = int(rng.integers(5, 17))
            a = rng.standard_normal((m, k), dtype=np.float32)
            b = rng.standard_normal((k, n), dtype=np.float32)
            c = np.full((m, n), np.nan, dtype=np.float32)
            module = build_matmul_module(m, n, k, sched)
            if sched.split_k == 1:
                interpreter.run_kernel(module[0], [a, b, c])
            else:
                partial = np.full((sched.split_k, m, n), np.nan,
                                  dtype=np.float32)
                interpreter.run_kernel(module[0], [a, b, partial])
                interpreter.run_kernel(module[1], [partial, c])
            ok = bool(np.allclose(c, a @ b, rtol=1e-4, atol=1e-3))
            mismatches += not ok
            ops.check(f'kernel {m}x{n}x{k} {sched}', ok,
                      'interpreter output differs from numpy')
        return {'backend.interpreter.checked': len(picks),
                'backend.interpreter.mismatches': mismatches}


# -- tune_guided ---------------------------------------------------------------

class TuneGuided:
    """Seeded cost model, guided compiles on one shared cache, clock and
    RidgeCostModel (the guided arm of ``run_cost_model_trajectory``), then
    save → warm → compact_log.

    IR, analysis and serving sit idle; this is the cache's write-heavy use.
    """

    name = 'tune_guided'
    compile_phase, compile_name = 'tune', 'tune_s'
    ops_phase, ops_name, ops_unit = 'tune', 'groups_per_s', 'groups/host-s'

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> dict:
        return {'graphs': {name: MODEL_BUILDERS[name]() for name in TUNE_MODELS}}

    def round(self, state: dict, ops: Ops, clock: PhaseClock) -> Round:
        t_round = perf_counter()
        sim: dict = {}
        reports = {}
        groups = 0
        with _temp_dir() as tmp:
            log = os.path.join(tmp, 'schedules.jsonl')
            with clock.phase('tune', 'seed'):
                cache = ScheduleCache()
                sim_clock = SimulatedClock()
                seeded = tune.seed_cost_model(cache, DEVICE, clock=sim_clock)
                cost_model = tune.RidgeCostModel(DEVICE)
            for name in TUNE_MODELS:
                with clock.phase('tune', name):
                    compiled = HidetExecutor(DEVICE, clock=sim_clock,
                                             cache=cache,
                                             cost_model=cost_model) \
                        .compile(state['graphs'][name], name=name)
                ops.check(f'{name} guided compile', compiled.latency_ms > 0.0)
                reports[name] = compiled.compile_report
                groups += len(compiled.ops)
                sim[f'{name}.latency_ms'] = compiled.latency_ms
                del compiled
            with clock.phase('tune', 'persist'):
                cache.save(log)
                warmed = ScheduleCache()
                warmed_entries = warmed.warm(log)
                kept = runtime_cache.compact_log(log)
            log_bytes = os.path.getsize(log)

            ops.check('record log round trip: entries and measurements',
                      warmed_entries == len(cache)
                      and warmed.measurement_count == cache.measurement_count
                      and kept == len(cache) + cache.measurement_count,
                      f'{warmed_entries}/{warmed.measurement_count}/{kept} vs '
                      f'{len(cache)}/{cache.measurement_count}')
            ops.check('record log round trip: identical records',
                      warmed.to_json() == cache.to_json())
            ops.check('compacted log replays to the same cache',
                      ScheduleCache.load(log).to_json() == cache.to_json())

        sim['tuning_s'] = sim_clock.elapsed_seconds
        values = list(reports.values())
        ranked = sum(r.ranked_tasks for r in values)
        tuned = sum(r.tuned_tasks for r in values)
        work = {f'{name}.{key}': getattr(report, key)
                for name, report in reports.items()
                for key in ('measurements', 'tuned_tasks', 'ranked_tasks',
                            'cost_model_fallbacks', 'cache_hits',
                            'cache_misses')}
        work.update({'tune.seed.measurements': seeded.measurements,
                     'runtime.cache.entries': len(cache),
                     'runtime.cache.records': cache.measurement_count,
                     'runtime.cache.log_bytes': log_bytes,
                     'runtime.cache.hits': sum(r.cache_hits for r in values),
                     'runtime.cache.misses': sum(r.cache_misses
                                                 for r in values),
                     'core.tuning.ranked_ratio': ranked / tuned if tuned else 0.0,
                     'core.tuning.fallbacks': sum(r.cost_model_fallbacks
                                                  for r in values)})
        latency = sum(v for k, v in sim.items() if k.endswith('.latency_ms'))
        return Round(
            intervals=clock.intervals, ops=groups,
            total_s=perf_counter() - t_round, sim=sim, work=work,
            named={'model_latency_ms': (latency, 'ms (sim)'),
                   'sim_tuning_s': (sim['tuning_s'], 's (sim)')},
            host={'sim.model_latency_ms': latency,
                  'sim.tuning_s': sim['tuning_s']})


# -- serve_warm ------------------------------------------------------------------

def _pair_capacity(registry) -> float:
    """Batch-1 requests/second over the co-hosted resnet50 + bert pair
    (the formula of ``batch1_capacity``, restricted to the Poisson mix)."""
    service = [registry[name].latency(1) + BATCH_OVERHEAD_SECONDS
               for name in SERVE_MODELS]
    return len(service) / sum(service)


class ServeWarm:
    """Warm restart from a record log made in setup, then open-loop replays.

    Warm startup is passes, partition, signatures and exact-hit lookups;
    replay is pure simulator; tuning is idle.  This is the cache's
    read-only use.
    """

    name = 'serve_warm'
    compile_phase, compile_name = 'startup', 'startup_s'
    ops_phase, ops_name, ops_unit = 'replay', 'replay_rps', 'requests/host-s'

    def __init__(self, seed: int):
        self.seed = seed
        self._tmp = _temp_dir()

    def close(self) -> None:
        self._tmp.cleanup()

    def setup(self) -> dict:
        configs = dict(SERVE_MODELS, gpt2=DECODE_CONFIG)
        built = {(name, b): for_batch(name, b, **kwargs)
                 for name, kwargs in configs.items() for b in LADDER}
        log = os.path.join(self._tmp.name, 'schedules.jsonl')
        if os.path.exists(log):
            os.remove(log)
        donor = build_registry(configs, LADDER, built, cache_path=log)
        capacity = _pair_capacity(donor)
        decode_cost = decode_cost_model(donor, 'gpt2',
                                        DECODE_CONFIG.get('seq_length', 128),
                                        graph=built[('gpt2', 1)])
        del donor
        names = sorted(SERVE_MODELS)
        traces = {mult: poisson_trace(qps=mult * capacity,
                                      num_requests=SERVE_REQUESTS,
                                      models=names, seed=self.seed + i)
                  for i, mult in enumerate(RATE_MULTIPLES)}
        mean_output = 12.0
        decode_qps = (4.0 / decode_cost.decode_step_seconds(1)) / mean_output
        decode = decode_trace(qps=decode_qps, num_requests=DECODE_REQUESTS,
                              model='gpt2', seed=self.seed,
                              prompt_tokens=(4, 16),
                              mean_output_tokens=mean_output,
                              max_output_tokens=DECODE_MAX_TOKENS)
        return {'configs': configs, 'built': built, 'log': log,
                'capacity': capacity, 'traces': traces, 'decode': decode,
                'log_bytes': os.path.getsize(log)}

    def round(self, state: dict, ops: Ops, clock: PhaseClock) -> Round:
        t_round = perf_counter()
        sim: dict = {}
        work: dict = {}
        built = state['built']

        # a fresh registry warms from the log and registers every ladder
        with clock.phase('startup', 'warm'):
            registry = ModelRegistry(cache_path=state['log'])
        for name in state['configs']:
            with clock.phase('startup', name):
                registry.register(
                    name, builder=lambda b, name=name: built[(name, b)],
                    buckets=LADDER)
        hits, misses = registry.cache.hits, registry.cache.misses
        ops.check('warm startup: all exact hits, no tuning',
                  misses == 0 and hits > 0
                  and registry.total_compile_seconds == 0.0,
                  f'{misses} misses, {registry.total_compile_seconds} s')
        ops.check('warm startup leaves the record log unchanged',
                  os.path.getsize(state['log']) == state['log_bytes'])
        work.update({'runtime.cache.hits': hits,
                     'runtime.cache.misses': misses,
                     'runtime.cache.entries': len(registry.cache),
                     'serve.register.compiles': sum(
                         len(m.buckets) for m in registry.models.values())})
        sim['startup_tuning_s'] = registry.total_compile_seconds
        sim['capacity_rps'] = state['capacity']
        sim.update({f'registry.{name}.b{b}.latency_s': registry[name].latency(b)
                    for name in state['configs'] for b in LADDER})

        policy = BatchingPolicy(max_batch=max(LADDER), max_wait=2e-3)
        requests = 0
        max_rps = 0.0
        for mult in RATE_MULTIPLES:
            trace = state['traces'][mult]
            with clock.phase('replay', f'{mult}x'):
                result = ServerSimulator(registry, policy).run(trace)
                stats = result.stats(registry)
            if mult == REFERENCE_MULTIPLE:
                reference = stats
                sim['replay.queue_wait_p99_ms'] = 1e3 * percentile(
                    [c.queueing_delay for c in result.completions], 99.0)
            requests += len(trace)
            ops.check(f'replay {mult}x conserves requests',
                      len(result.completions) + len(result.rejected)
                      == len(trace) == stats.num_requests + stats.num_rejected)
            # a refused request or a growing backlog misses the limit
            offered = mult * state['capacity']
            if (stats.latency_p99_ms <= P99_LIMIT_MS and stats.num_rejected == 0
                    and stats.throughput_rps >= 0.95 * offered):
                max_rps = max(max_rps, offered)
            sim[f'replay.{mult}x.p50_ms'] = stats.latency_p50_ms
            sim[f'replay.{mult}x.p99_ms'] = stats.latency_p99_ms
            sim[f'replay.{mult}x.throughput_rps'] = stats.throughput_rps
            work[f'replay.{mult}x.batches'] = stats.num_batches
            del result

        # decode: continuous batching under reserve admission
        cost = decode_cost_model(registry, 'gpt2',
                                 DECODE_CONFIG.get('seq_length', 128),
                                 graph=built[('gpt2', 1)])
        trace = state['decode']
        bpt = gpt2_kv_bytes_per_token()
        width = max(LADDER)
        with clock.phase('replay', 'decode'):
            decode = DecodeSimulator(
                cost, DecodePolicy(max_width=width, admission='reserve',
                                   max_tokens=DECODE_MAX_TOKENS),
                kv_bytes_per_token=bpt,
                kv_capacity_bytes=width * (16 + DECODE_MAX_TOKENS) * bpt // 4
            ).run(trace)
            dstats = decode.stats()
        requests += len(trace)
        finished = sum(r.request.output_tokens for r in decode.completions)
        ops.check('decode replay conserves requests and tokens',
                  len(decode.completions) + len(decode.rejected)
                  + len(decode.lost) == len(trace)
                  and not decode.lost and dstats.num_decode_tokens == finished
                  and dstats.kv_overflow_steps == 0)
        sim['replay.decode.tokens_per_s'] = dstats.tokens_per_second
        sim['replay.decode.p99_ms'] = dstats.latency_p99_ms
        work['replay.decode.tokens'] = dstats.num_decode_tokens
        del decode

        # the reference rate once more, with telemetry and a Chrome export
        trace = state['traces'][REFERENCE_MULTIPLE]
        chrome = os.path.join(self._tmp.name, 'serve.chrome.json')
        telemetry = Telemetry()
        with clock.phase('replay', 'telemetry'):
            traced = ServerSimulator(registry, policy) \
                .run(trace, telemetry=telemetry) \
                .stats(registry, telemetry=telemetry)
            telemetry.tracer.assert_invariants()
            telemetry.write_chrome_trace(chrome)
        requests += len(trace)
        work['replay.obs.export.bytes'] = os.path.getsize(chrome)
        os.remove(chrome)
        ops.check('telemetry replay matches the plain replay',
                  traced == reference)
        del telemetry, traced, registry

        sim['replay.serve_max_rps'] = max_rps
        work['serve.requests'] = requests
        return Round(
            intervals=clock.intervals, ops=requests,
            total_s=perf_counter() - t_round, sim=sim, work=work,
            named={'serve_p99_ms': (reference.latency_p99_ms, 'ms (sim)'),
                   'serve_p50_ms': (reference.latency_p50_ms, 'ms (sim)'),
                   'serve_samples': (reference.num_requests, 'requests'),
                   'serve_max_rps': (max_rps, 'req/s (sim)'),
                   'decode_tokens_per_s': (dstats.tokens_per_second,
                                           'tok/s (sim)')},
            host={'obs.telemetry_ratio': clock.seconds('telemetry')
                  / clock.seconds(f'{REFERENCE_MULTIPLE}x'),
                  'sim.serve_p50_ms': reference.latency_p50_ms,
                  'sim.serve_p99_ms': reference.latency_p99_ms,
                  'sim.serve_samples': reference.num_requests,
                  'sim.serve_max_rps': max_rps,
                  'sim.decode_tokens_per_s': dstats.tokens_per_second,
                  'sim.queue_wait_p99_ms': sim['replay.queue_wait_p99_ms']})


WORKLOADS = {cls.name: cls for cls in (CompileCold, TuneGuided, ServeWarm)}
