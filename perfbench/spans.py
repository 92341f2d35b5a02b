"""Span recorder for the traced benchmark run.

The benchmark times the program from outside: :func:`install` replaces each
layer's public callable, at the attribute its caller looks it up through,
with a wrapper that records a span (name, start, end, parent).  Nothing under
``src/`` changes, and :func:`install` returns an undo function that puts
every original back.

Spans stay in memory.  Hot callables (called once per tuning candidate) are
aggregated only, so the Chrome trace holds the structural spans and the
per-name totals hold everything.  A span's self time is its duration minus
the time its child spans cover.
"""
from __future__ import annotations

import json
import os
from collections import defaultdict
from time import perf_counter

#: layer order for reports: the repo's modules, pipeline first
LAYERS = ('graph', 'runtime', 'core', 'gpusim', 'sched', 'analysis',
          'backend', 'tune', 'serve', 'obs')
#: spans kept for the Chrome trace; later ones count in the totals only
MAX_KEPT_SPANS = 200_000


class SpanRecorder:
    """In-memory spans with per-name calls, inclusive and self seconds."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        #: spans not kept because ``MAX_KEPT_SPANS`` were kept already
        self.dropped = 0
        #: seconds inside spans that had no parent span (the covered time)
        self.root_seconds = 0.0
        self._stack: list[list] = []          # [child seconds, span id]
        self._next_id = 0

    def wrap(self, name: str, fn, keep: bool = True, count=None):
        """``fn`` wrapped in a span; ``count(result, args, kwargs)`` returns
        ``{counter: amount}`` to add after each call."""
        stack = self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0.0, self._next_id]
            self._next_id += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if parent is None:
                    self.root_seconds += duration
                else:
                    parent[0] += duration
                self.calls[name] += 1
                self.total[name] += duration
                self.self_time[name] += duration - frame[0]
                if keep and len(self.spans) < MAX_KEPT_SPANS:
                    self.spans.append((name, start, end, frame[1],
                                       -1 if parent is None else parent[1]))
                elif keep:
                    self.dropped += 1
            if count is not None:
                for key, amount in count(result, args, kwargs).items():
                    self.counts[key] += amount
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def layer_self_seconds(self) -> dict[str, float]:
        """Self seconds summed per layer (a span's first name component)."""
        out = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self.self_time.items():
            out[name.split('.', 1)[0]] += seconds
        return out

    def chrome_trace(self) -> dict:
        """Kept spans as Chrome ``X`` events, aggregates as metadata."""
        t0 = min((s[1] for s in self.spans), default=0.0)
        events = [{'name': name, 'cat': name.split('.', 1)[0], 'ph': 'X',
                   'ts': (start - t0) * 1e6, 'dur': (end - start) * 1e6,
                   'pid': 0, 'tid': 0, 'args': {'id': sid, 'parent': pid}}
                  for name, start, end, sid, pid in self.spans]
        totals = {name: {'calls': self.calls[name],
                         'seconds': self.total[name],
                         'self_seconds': self.self_time[name]}
                  for name in sorted(self.calls)}
        return {'traceEvents': events, 'displayTimeUnit': 'ms',
                'otherData': {'span_totals': totals}}

    def write_chrome_trace(self, path: str) -> int:
        with open(path, 'w') as f:
            json.dump(self.chrome_trace(), f)
        return os.path.getsize(path)


def _n(key):
    return lambda result, args, kwargs: {key: 1}


def _len_result(key):
    return lambda result, args, kwargs: {key: len(result)}


def _file_bytes(key):
    return lambda result, args, kwargs: {key: os.path.getsize(args[1])}


def _targets():
    """``(owner, attribute, span name, keep, count)`` for every layer."""
    import repro.analysis
    import repro.backend.codegen
    import repro.backend.interpreter
    import repro.runtime.cache
    import repro.runtime.executor as executor
    import repro.sched.matmul_template as matmul_template
    import repro.tune
    import repro.tune.cost_model
    import repro.tune.features
    from repro.core.tuning import MatmulTuner
    from repro.gpusim.perfmodel import PerfModel
    from repro.obs import Telemetry, Tracer
    from repro.runtime.cache import ScheduleCache
    from repro.serve.registry import ModelRegistry
    from repro.serve.simulator import (DecodeResult, DecodeSimulator,
                                       ServerSimulator, SimulationResult)
    from repro.tune import RidgeCostModel

    def tuned(result, args, kwargs):
        return {'core.tuning.candidates': result.num_candidates,
                'core.tuning.measurements': result.num_measured}

    def analyzed(result, args, kwargs):
        return {'analysis.analyze.modules': 1,
                'analysis.analyze.errors': len(result.errors)}

    def served(result, args, kwargs):
        return {'serve.server.requests':
                len(result.completions) + len(result.rejected),
                'serve.server.batches': len(result.batches)}

    def decoded(result, args, kwargs):
        return {'serve.decode.requests': len(result.completions)
                + len(result.rejected) + len(result.lost),
                'serve.decode.tokens': result.num_decode_tokens}

    def fitted(result, args, kwargs):
        return {'tune.fit.rows': len(args[1])}

    return [
        (executor, 'fold_constants', 'graph.passes', True, None),
        (executor, 'lower_conv_to_gemm', 'graph.passes', True, None),
        (executor, 'partition_graph', 'graph.partition', True,
         _len_result('graph.partition.groups')),
        (executor, 'build_group_spec', 'graph.group_spec', True, None),
        (executor, 'task_signature', 'runtime.signature', True, None),
        (executor, 'task_family_signature', 'runtime.signature', True, None),
        (executor, 'task_device_family_signature', 'runtime.signature', True,
         None),
        (ScheduleCache, 'get', 'runtime.cache.lookup', True, None),
        (ScheduleCache, 'get_transfer', 'runtime.cache.lookup', True, None),
        (ScheduleCache, 'get_device_transfer', 'runtime.cache.lookup', True,
         None),
        (ScheduleCache, 'put', 'runtime.cache.put', True, None),
        (ScheduleCache, 'record_measurement', 'runtime.cache.record', False,
         None),
        (ScheduleCache, 'save', 'runtime.cache.save', True,
         _file_bytes('runtime.cache.save.bytes')),
        (ScheduleCache, 'warm', 'runtime.cache.warm', True,
         lambda result, args, kwargs: {'runtime.cache.warm.entries': result}),
        (repro.runtime.cache, 'compact_log', 'runtime.cache.compact', True,
         None),
        (executor, 'matmul_schedule_space', 'core.space', True, None),
        (executor, 'reduce_schedule_space', 'core.space', True, None),
        (MatmulTuner, 'tune', 'core.tuning.tune', True, tuned),
        (PerfModel, 'latency', 'gpusim.latency', False, None),
        (matmul_template, 'matmul_stats', 'sched.matmul_stats', False, None),
        (repro.tune.features, 'matmul_stats', 'sched.matmul_stats', False,
         None),
        (executor, 'reduce_stats', 'sched.stats', True, None),
        (matmul_template, 'build_matmul_module', 'sched.build_ir', True,
         _n('sched.build_ir.modules')),
        (executor, 'build_reduce_module', 'sched.build_ir', True,
         _n('sched.build_ir.modules')),
        (executor, 'build_rule_based_module', 'sched.build_ir', True,
         _n('sched.build_ir.modules')),
        (executor, 'apply_fusion', 'sched.fusion', True, None),
        (repro.analysis, 'analyze_module', 'analysis.analyze', True, analyzed),
        (repro.backend.codegen, 'generate_cuda_module', 'backend.codegen',
         True, lambda result, args, kwargs: {'backend.codegen.bytes':
                                             len(result)}),
        (repro.backend.interpreter, 'run_kernel', 'backend.interpreter', True,
         _n('backend.interpreter.kernels')),
        (repro.tune, 'seed_cost_model', 'tune.seed', True,
         lambda result, args, kwargs: {'tune.seed.measurements':
                                       result.measurements}),
        (RidgeCostModel, 'fit', 'tune.fit', True, fitted),
        (RidgeCostModel, 'rank', 'tune.rank', True, None),
        (repro.tune.cost_model, 'featurize', 'tune.featurize', False, None),
        (ModelRegistry, 'register', 'serve.register', True,
         lambda result, args, kwargs: {'serve.register.compiles':
                                       len(result.buckets)}),
        (ServerSimulator, 'run', 'serve.server', True, served),
        (DecodeSimulator, 'run', 'serve.decode', True, decoded),
        (SimulationResult, 'stats', 'serve.stats', True, None),
        (DecodeResult, 'stats', 'serve.stats', True, None),
        (Telemetry, 'write_chrome_trace', 'obs.export', True,
         _file_bytes('obs.export.bytes')),
        (Tracer, 'assert_invariants', 'obs.invariants', True, None),
    ]


def install(recorder: SpanRecorder):
    """Wrap every layer callable; returns a function that undoes it."""
    originals = []
    for owner, attr, name, keep, count in _targets():
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        originals.append((owner, attr, original))
        setattr(owner, attr, recorder.wrap(name, original, keep, count))

    def uninstall():
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)
    return uninstall
