"""Host-clock benchmark of the Hidet reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload compile_cold --seed 1 --seconds 8 --trace 0

Workloads are ``compile_cold``, ``tune_guided`` and ``serve_warm`` (see
``perfbench/workloads.py`` and ``perfbench/README.md``).  With ``--trace 0``
the run sets up three times (``setup_s`` is the median), then repeats the
workload's round until ``--seconds`` of rounds have run, and reports the
end-to-end metrics of ``BENCHMARK.json`` as medians over rounds, in
reference seconds (``perfbench/speed.py``).  With ``--trace 1`` it sets up
once, runs one untraced and one traced round, and reports the per-layer
metrics; the Chrome trace of the traced round is written to
``perfbench/out/``.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A failed check exits 1; one of the checks is
that the seed-independent simulated results and work counts equal those
committed in ``perfbench/expected.json``.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
THREAD_VARS = ('OMP_NUM_THREADS', 'OPENBLAS_NUM_THREADS', 'MKL_NUM_THREADS',
               'NUMEXPR_NUM_THREADS', 'VECLIB_MAXIMUM_THREADS')

EXPECTED_FILE = os.path.join(HERE, 'expected.json')
SETUPS = 3
ATTRIBUTION_FLOOR = 0.9

#: spans whose self seconds are reported per layer (every workload runs them)
SPAN_SECONDS = ('graph.passes', 'graph.partition', 'graph.group_spec',
                'runtime.signature', 'runtime.cache.lookup', 'gpusim.latency',
                'sched.matmul_stats')
#: span call counts reported per layer
SPAN_CALLS = ('runtime.signature', 'gpusim.latency', 'sched.matmul_stats',
              'tune.fit', 'tune.rank', 'tune.featurize')
#: counters the span wrappers accumulate
SPAN_COUNTS = ('graph.partition.groups', 'runtime.cache.save.bytes',
               'runtime.cache.warm.entries', 'core.tuning.candidates',
               'core.tuning.measurements', 'sched.build_ir.modules',
               'analysis.analyze.modules', 'analysis.analyze.errors',
               'backend.codegen.bytes', 'backend.interpreter.kernels',
               'tune.seed.measurements', 'tune.fit.rows',
               'serve.register.compiles', 'serve.server.requests',
               'serve.server.batches', 'serve.decode.requests',
               'serve.decode.tokens', 'obs.export.bytes')
#: work counts the program itself reports (zero where a layer is bypassed)
PROGRAM_COUNTS = ('runtime.cache.hits', 'runtime.cache.misses',
                  'runtime.cache.records', 'core.tuning.ranked_ratio',
                  'core.tuning.fallbacks', 'sched.ir_reuse_ratio',
                  'backend.interpreter.mismatches')
#: simulated-clock and host ratio figures a round reports under ``host``
ROUND_FIGURES = ('sim.model_latency_ms', 'sim.tuning_s', 'sim.serve_p50_ms',
                 'sim.serve_p99_ms', 'sim.serve_samples', 'sim.serve_max_rps',
                 'sim.decode_tokens_per_s', 'sim.queue_wait_p99_ms',
                 'obs.telemetry_ratio')


def _spec() -> dict:
    with open(os.path.join(ROOT, 'BENCHMARK.json')) as f:
        return json.load(f)


def _fingerprint(rnd) -> str:
    blob = json.dumps({'sim': rnd.sim, 'work': rnd.work}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def check_expected(workload, rnd, ops) -> None:
    """Fail unless the round's seed-independent simulated results and work
    counts equal the committed ones.  This catches a run that disagrees
    with another run, and a change that moves chosen schedules or serving
    results; a change that moves them on purpose updates ``expected.json``
    with the figures printed here."""
    from workloads import fixed_results
    with open(EXPECTED_FILE) as f:
        expected = json.load(f).get(workload.name, {})
    actual = fixed_results(rnd)
    differ = sorted(key for key in expected.keys() | actual.keys()
                    if expected.get(key) != actual.get(key))
    if differ:
        print(f'  {workload.name} results for expected.json: '
              f'{json.dumps(actual, sort_keys=True)}')
    ops.check('simulated results and work counts equal expected.json',
              not differ, '; '.join(f'{key}: expected {expected.get(key)}, '
                                    f'got {actual.get(key)}'
                                    for key in differ[:5])
              + (f'; {len(differ) - 5} more' if len(differ) > 5 else ''))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def phase_seconds(rnd, phase: str, sampler=None) -> float:
    """Seconds a round spent in ``phase``: reference seconds with a
    sampler, wall seconds without."""
    return sum(sampler.reference_seconds(start, end) if sampler else end - start
               for name, _, start, end in rnd.intervals if name == phase)


def host_figures(workload, rounds, sampler=None) -> tuple[float, float]:
    """Medians over rounds: the compile phase's seconds, and units of work
    per second of the ops phase."""
    return (statistics.median(phase_seconds(r, workload.compile_phase, sampler)
                              for r in rounds),
            statistics.median(r.ops / phase_seconds(r, workload.ops_phase,
                                                    sampler)
                              for r in rounds))


def _print_detail(workload, rounds, ops, sampler) -> None:
    print(f'workload {workload.name}: {len(rounds)} round(s); host figures '
          f'in reference seconds (wall seconds in brackets)')
    compile_s, ops_rate = host_figures(workload, rounds, sampler)
    wall_s, wall_rate = host_figures(workload, rounds)
    print(f'  {workload.compile_name:22s} {compile_s:14.6g} s    '
          f'[{wall_s:.6g} s]')
    print(f'  {workload.ops_name:22s} {ops_rate:14.6g} {workload.ops_unit}    '
          f'[{wall_rate:.6g}]')
    for key, (value, unit) in rounds[0].named.items():
        print(f'  {key:22s} {value:14.6g} {unit}')
    print(f'  {"peak_rss_mb":22s} {_peak_rss_mb():14.6g} MB')
    rate = len(ops.failures) / ops.attempted if ops.attempted else 0.0
    print(f'  {"error_rate":22s} {rate:14.6g} fraction '
          f'({len(ops.failures)}/{ops.attempted})')
    print(f'  fingerprint of simulated results and work counts: '
          f'{_fingerprint(rounds[0])}')


def run_untraced(workload, seconds: float, ops, sampler) -> dict:
    from workloads import PhaseClock
    setups, state = [], None
    for _ in range(SETUPS):
        state = None
        gc.collect()
        start = perf_counter()
        state = workload.setup()
        setups.append((start, perf_counter()))
    rounds = []
    while not rounds or sum(r.total_s for r in rounds) < seconds:
        gc.collect()
        rounds.append(workload.round(state, ops, PhaseClock()))
    first = rounds[0]
    check_expected(workload, first, ops)
    if len(rounds) > 1:
        ops.check('rounds agree on simulated results and work counts',
                  all(r.sim == first.sim and r.work == first.work
                      for r in rounds[1:]))
    setup_s = statistics.median(sampler.reference_seconds(*s) for s in setups)
    print(f'  setups {", ".join(f"{e - s:.3f}" for s, e in setups)} wall s; '
          f'setup_s {setup_s:.6g} reference s')
    _print_detail(workload, rounds, ops, sampler)
    compile_s, ops_per_s = host_figures(workload, rounds, sampler)
    return {'setup_s': setup_s, 'compile_s': compile_s,
            'ops_per_s': ops_per_s, 'peak_rss_mb': _peak_rss_mb()}


def timed_reference_s(rnd, sampler) -> float:
    """Reference seconds of every timed chunk of a round."""
    return sum(sampler.reference_seconds(start, end)
               for _, _, start, end in rnd.intervals)


def run_traced(workload, seed: int, ops, sampler) -> dict:
    from spans import SpanRecorder, install
    from workloads import PhaseClock
    gc.collect()
    state = workload.setup()
    gc.collect()
    untraced = workload.round(state, ops, PhaseClock())
    recorder = SpanRecorder()
    clock = PhaseClock(recorder)
    gc.collect()
    uninstall = install(recorder)
    try:
        traced = workload.round(state, ops, clock)
    finally:
        uninstall()
    check_expected(workload, untraced, ops)
    ops.check('traced round matches the untraced round',
              traced.sim == untraced.sim and traced.work == untraced.work,
              'span wrappers changed simulated results or work counts')
    timed_s = sum(end - start for _, _, start, end in clock.intervals)
    attributed = clock.covered / timed_s
    ops.check(f'spans cover >= {ATTRIBUTION_FLOOR:.0%} of the timed phases',
              attributed >= ATTRIBUTION_FLOOR, f'{attributed:.3f}')

    os.makedirs(os.path.join(HERE, 'out'), exist_ok=True)
    trace_path = os.path.join(HERE, 'out',
                              f'{workload.name}-seed{seed}.trace.json')
    recorder.write_chrome_trace(trace_path)
    if recorder.dropped:
        print(f'  Chrome trace keeps the first {len(recorder.spans)} spans; '
              f'{recorder.dropped} later ones are only in the span totals')
    _print_detail(workload, [untraced], ops, sampler)
    overhead = (timed_reference_s(traced, sampler)
                - timed_reference_s(untraced, sampler))
    print(f'  tracing overhead {overhead:.3f} reference s; spans cover '
          f'{attributed:.1%} of {timed_s:.3f} s timed; '
          f'Chrome trace {os.path.relpath(trace_path, ROOT)}')
    print(f'  {"span":28s} {"calls":>9s} {"incl s":>9s} {"self s":>9s}')
    for name in sorted(recorder.calls):
        print(f'  {name:28s} {recorder.calls[name]:9d} '
              f'{recorder.total[name]:9.3f} {recorder.self_time[name]:9.3f}')

    layer = {f'{name}.s': recorder.self_time.get(name, 0.0)
             for name in SPAN_SECONDS}
    layer.update({f'{name}.calls': recorder.calls.get(name, 0)
                  for name in SPAN_CALLS})
    layer.update({name: recorder.counts.get(name, 0) for name in SPAN_COUNTS})
    layer.update({name: traced.work.get(name, 0) for name in PROGRAM_COUNTS})
    layer.update({name: traced.host.get(name, 0.0) for name in ROUND_FIGURES})
    for name, seconds in recorder.layer_self_seconds().items():
        layer[f'{name}.self_share'] = seconds / traced.total_s
    lookups = layer['runtime.cache.hits'] + layer['runtime.cache.misses']
    layer['runtime.cache.hit_ratio'] = (layer['runtime.cache.hits'] / lookups
                                        if lookups else 0.0)
    layer['bench.attributed_share'] = attributed
    layer['bench.trace_overhead_s'] = overhead
    return layer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    parser.add_argument('--workload', required=True)
    parser.add_argument('--seed', type=int, required=True)
    parser.add_argument('--seconds', type=float, required=True)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, 'src', 'repro')):
        sys.exit(f'no repro package under {ROOT}/src: run from a checkout')
    # before numpy loads: single-threaded BLAS/OpenMP (never more than
    # nproc) for steadier timings; the analyzer gate stays on
    for var in THREAD_VARS:
        os.environ[var] = '1'
    os.environ.pop('REPRO_SKIP_IR_CHECKS', None)
    sys.path[:0] = [os.path.join(ROOT, 'src'), HERE]
    spec = _spec()
    from speed import SpeedSampler, pin_to_current_cpu
    from workloads import WORKLOADS, Ops
    if args.workload not in WORKLOADS:
        parser.error(f'unknown workload {args.workload!r}; '
                     f'have {sorted(WORKLOADS)}')
    wanted = spec['per_layer' if args.trace else 'end_to_end']
    workload = WORKLOADS[args.workload](args.seed)
    ops = Ops()
    values: dict = {}
    try:
        pin_to_current_cpu()
        with SpeedSampler() as sampler:
            if args.trace:
                values = run_traced(workload, args.seed, ops, sampler)
            else:
                values = run_untraced(workload, args.seconds, ops, sampler)
    except Exception as exc:        # a raising operation is a failed one
        traceback.print_exc()
        ops.check('workload', False, f'raised {type(exc).__name__}: {exc}')
    finally:
        close = getattr(workload, 'close', None)
        if close is not None:
            close()
    missing = [m['name'] for m in wanted if m['name'] not in values]
    if values and missing:
        raise KeyError(f'benchmark did not compute {missing}')
    for failure in ops.failures:
        print(f'FAILED {failure}')
    correct = not ops.failures
    result = {'correct': correct,
              'attempted': ops.attempted,
              'failed': len(ops.failures),
              'metrics': {m['name']: {'value': float(values[m['name']]),
                                      'unit': m['unit']}
                          for m in wanted if m['name'] in values}}
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == '__main__':
    sys.exit(main())
