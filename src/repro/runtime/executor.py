"""The Hidet compilation pipeline (paper Figure 10).

``optimize(graph)`` runs:

1. graph-level optimizations — constant folding, conv→implicit-GEMM lowering
   (§5.2), fusible sub-graph partition (§4.2);
2. per-group schedule dispatch — every group's task is canonicalized into a
   content-addressed signature (task kind, shapes, dtypes, fusion shape,
   device; :func:`repro.runtime.cache.task_signature`) and looked up in the
   :class:`~repro.runtime.cache.ScheduleCache` first.  A hit reuses the
   stored schedule and charges *zero* simulated tuning time — schedules in
   the hardware-centric space are input-size independent (§4.3), so they
   transfer across operators, graphs, and processes;
3. per-group scheduling on a miss — matmul-class anchors go through
   template-based scheduling with exhaustive tuning in the hardware-centric
   space (§4.3); large last-axis reductions use the reduce template
   mini-tune (falling back to rule-based when the device admits no valid
   reduce schedule); everything else is rule-based (§5.1.3).  The winning
   schedule is stored back into the cache;
4. post-scheduling fusion — prologues/epilogues are rewritten into the
   scheduled tensor program (§5.2); built ``IRModule``s are memoized per
   signature in the executor's IR cache;
5. packaging into a :class:`~repro.runtime.compiled.CompiledGraph` with
   modeled latencies, the simulated tuning-cost clock, and the compile's
   cache hit/miss counts.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from ..core.schedule import MatmulSchedule, ReduceSchedule
from ..core.space import (matmul_schedule_space, reduce_schedule_space,
                          split_k_candidates)
from ..core.tuning import MatmulTuner, HIDET_TUNING_COSTS
from ..graph.flow_graph import FlowGraph
from ..graph.passes import (build_group_spec, fold_constants, lower_conv_to_gemm,
                            partition_graph)
from ..graph.passes.fuse_partition import FusedGroup
from ..graph.passes.to_spec import GroupSpec
from ..gpusim.clock import SimulatedClock
from ..gpusim.device import DeviceSpec, RTX3090
from ..gpusim.perfmodel import PerfModel
from ..gpusim.stats import KernelStats
from ..ir.compute import ReduceCompute
from ..ir.functor import collect
from ..sched import matmul_template
from ..sched.fusion import apply_fusion
from ..sched.reduce_template import build_reduce_module, is_last_axis_reduction, reduce_stats
from ..sched.rule_based import ELEMENTWISE_BLOCK, build_rule_based_module
from .cache import (MeasurementRecord, ScheduleCache, default_schedule_cache,
                    fusion_fingerprint, space_fingerprint,
                    task_device_family_signature, task_family_signature,
                    task_signature)
from .compiled import CompiledGraph, CompiledOp, CompileReport

__all__ = ['optimize', 'HidetExecutor', 'TuningProblem']

#: reductions at least this deep use the block-parallel reduce template
REDUCE_TEMPLATE_THRESHOLD = 256


@dataclass(frozen=True)
class TuningProblem:
    """One schedulable unit extracted from a graph, compile-free.

    Everything :meth:`HidetExecutor.tune_problem` needs to tune the group
    *without* re-running the graph passes: the three signature tiers, the
    problem sizes, and the fused traffic.  This is the unit of work the
    parallel tuning service (:mod:`repro.tune.service`) shards across
    workers — the signatures are computed by the extracting executor, so a
    cache populated through ``tune_problem`` is indistinguishable from one
    populated by :meth:`HidetExecutor.compile`.
    """

    kind: str                    # 'matmul' | 'reduce'
    signature: str
    namespace: str = ''
    #: estimated simulated tuning seconds of a cold tune (LPT sharding key)
    weight: float = 0.0
    # matmul problems
    m: int = 0
    n: int = 0
    k: int = 0
    batch: int = 1
    extra_read_bytes: float = 0.0
    extra_write_bytes: float = 0.0
    family: Optional[str] = None
    device_family: Optional[str] = None
    #: reduce problems carry their task (the mini-tune evaluates its stats)
    task: object = None


class HidetExecutor:
    """Compiles flow graphs with the full Hidet pipeline."""

    def __init__(self, device: DeviceSpec = RTX3090,
                 clock: Optional[SimulatedClock] = None,
                 space: Optional[Sequence[MatmulSchedule]] = None,
                 enable_fusion: bool = True,
                 double_buffer: bool = True,
                 try_split_k: bool = True,
                 build_ir: bool = False,
                 cache: Optional[ScheduleCache] = None,
                 enable_transfer: bool = False,
                 enable_device_transfer: bool = False,
                 cost_model=None,
                 record_measurements: Optional[bool] = None,
                 check_ir: Optional[bool] = None,
                 candidate_analyzer=None):
        self.device = device
        self.clock = clock if clock is not None else SimulatedClock()
        self.space = space if space is not None else matmul_schedule_space(
            device, double_buffer=double_buffer)
        self.tuner = MatmulTuner(device, HIDET_TUNING_COSTS, self.clock)
        #: device-only, like self.space — built once, not per reduce group
        self._reduce_space = list(reduce_schedule_space(device))
        self.model = PerfModel(device)
        self.enable_fusion = enable_fusion
        self.try_split_k = try_split_k
        self.build_ir = build_ir
        #: schedule store consulted before any tuning; the process-wide
        #: default is shared across executor instances (pass a fresh
        #: ``ScheduleCache()`` for an isolated, cold compile)
        self.cache = cache if cache is not None else default_schedule_cache()
        #: when a matmul's size-family is already cached, re-tune new sizes
        #: by re-measuring the (input-size independent, §4.3) candidate set
        #: instead of recompiling it — same optimal schedule, a fraction of
        #: the tuning bill.  Off by default so cold-compile cost experiments
        #: stay comparable; the serving registry turns it on for its ladders
        self.enable_transfer = enable_transfer
        #: when a cache warmed from a *different* device holds this matmul's
        #: device family, adopt its schedule after validating it against the
        #: local DeviceSpec: one compile + one measurement instead of tuning
        #: the space.  The adopted schedule is not guaranteed optimal here
        #: (devices differ in capacity), which is why this is a separate
        #: opt-in from enable_transfer — heterogeneous fleets turn it on to
        #: warm new replicas from their neighbours' caches
        self.enable_device_transfer = enable_device_transfer
        #: restricted spaces must not consume full-space records (and vice
        #: versa), so the space digest is part of every matmul signature
        self._space_key = space_fingerprint(self.space)
        #: the space's base configurations (split-k variants are derived per
        #: problem), used to confine device-family transfers: the space key
        #: itself is device-derived and cannot appear in a cross-device
        #: signature, so membership is checked at adoption time instead —
        #: a restricted-space executor must not adopt (and re-cache) a
        #: foreign schedule its own space excludes
        self._space_base = frozenset(replace(s, split_k=1) for s in self.space)
        #: signature → built IRModule, so repeated identical groups (and
        #: repeated compiles through one executor) lower the IR once
        self._ir_cache: dict[tuple, object] = {}
        #: namespace tag applied to cache records of the current compile()
        self._namespace = ''
        #: optional learned cost model (duck-typed; see
        #: :class:`repro.tune.RidgeCostModel`): the matmul tuner ranks
        #: candidates with it and measures only the predicted top-k, with
        #: calibrated fallback to full enumeration.  Bound to this
        #: executor's cache (its training source) unless already bound —
        #: runtime stays ignorant of repro.tune, which sits above it.
        self.cost_model = cost_model
        if cost_model is not None and getattr(cost_model, 'source', None) is None:
            cost_model.bind(self.cache)
        #: record every measured candidate into the cache as cost-model
        #: training data.  Defaults to on exactly when a cost model is
        #: attached (it trains on what this executor measures); tuning
        #: workers opt in explicitly so exhaustive seeding runs also feed
        #: the corpus.  Off otherwise — plain compiles shouldn't grow
        #: every saved cache file by ~200 records per tuned GEMM.
        if record_measurements is None:
            record_measurements = cost_model is not None
        self.record_measurements = bool(record_measurements)
        #: static-analysis compile gate (repro.analysis): every IR module
        #: built through build_ir is verified (well-formedness) and analyzed
        #: (bounds / coverage / races) before it is cached; errors raise
        #: AnalysisError.  Defaults to on; REPRO_SKIP_IR_CHECKS=1 (or
        #: check_ir=False) is the escape hatch for speed-sensitive runs.
        if check_ir is None:
            check_ir = os.environ.get('REPRO_SKIP_IR_CHECKS', '') not in (
                '1', 'true', 'yes')
        self.check_ir = bool(check_ir)
        #: optional pre-measurement candidate filter (duck-typed:
        #: ``reject(m, n, k, sched, batch) -> Optional[str]``, see
        #: :class:`repro.analysis.ScheduleAnalyzer`): statically unsafe
        #: schedules are dropped from the tuning space before any
        #: measurement is charged.  Opt-in — instantiating the template for
        #: every candidate costs more than the simulated measurement does.
        self.candidate_analyzer = candidate_analyzer

    # ------------------------------------------------------------------

    def compile(self, graph: FlowGraph, name: str = '',
                namespace: str = '') -> CompiledGraph:
        """Compile a flow graph; ``namespace`` tags new cache records with
        their owning model (serving-registry bookkeeping)."""
        start = self.clock.elapsed_seconds
        hits0, misses0 = self.cache.hits, self.cache.misses
        transfers0 = self.cache.transfer_hits
        device_transfers0 = self.cache.device_transfer_hits
        measurements0 = self.tuner.measurements_charged
        tuned0 = self.tuner.tasks_tuned
        ranked0 = self.tuner.ranked_tasks
        fallbacks0 = self.tuner.fallback_tasks
        checked0 = self.tuner.analysis_checked
        rejected0 = self.tuner.analysis_rejected
        self._namespace = namespace
        try:
            optimized = lower_conv_to_gemm(fold_constants(graph))
            if self.enable_fusion:
                groups = partition_graph(optimized)
            else:
                groups = [FusedGroup(anchor=op) for op in optimized.nodes]
            compiled_ops = [self._compile_group(g) for g in groups]
        finally:
            self._namespace = ''
        return CompiledGraph(
            graph=optimized,
            ops=compiled_ops,
            device=self.device,
            compile_report=CompileReport(
                tuning_seconds=self.clock.elapsed_seconds - start,
                cache_hits=self.cache.hits - hits0,
                cache_misses=self.cache.misses - misses0,
                transfer_hits=self.cache.transfer_hits - transfers0,
                device_transfer_hits=(self.cache.device_transfer_hits
                                      - device_transfers0),
                measurements=(self.tuner.measurements_charged
                              - measurements0),
                tuned_tasks=self.tuner.tasks_tuned - tuned0,
                ranked_tasks=self.tuner.ranked_tasks - ranked0,
                cost_model_fallbacks=(self.tuner.fallback_tasks
                                      - fallbacks0),
                analysis_checked=self.tuner.analysis_checked - checked0,
                analysis_rejected=(self.tuner.analysis_rejected
                                   - rejected0)),
            name=name or f'hidet_{graph.name}',
        )

    def compile_for_batches(self, for_batch, buckets: Sequence[int],
                            name: str = '', namespace: str = '') -> dict[int, 'CompiledGraph']:
        """Compile one model at a ladder of batch-size buckets.

        ``for_batch(b)`` rebuilds the model's flow graph at batch size ``b``
        (see :func:`repro.models.for_batch`).  Buckets compile in ascending
        order so that, with :attr:`enable_transfer`, the smallest bucket
        compiles each GEMM family's candidate kernels and every later bucket
        re-tunes by measurement only (transfer hits); repeated compiles
        through one executor also share the lowered-IR cache.  Returns
        ``{bucket: CompiledGraph}``.
        """
        compiled: dict[int, CompiledGraph] = {}
        for bucket in sorted(set(buckets)):
            if bucket < 1:
                raise ValueError(f'batch bucket must be >= 1, got {bucket}')
            graph = for_batch(bucket)
            compiled[bucket] = self.compile(
                graph, name=name and f'{name}_b{bucket}', namespace=namespace)
        return compiled

    # -- tuning-service protocol ---------------------------------------

    def tuning_problems(self, graph: FlowGraph,
                        namespace: str = '') -> list[TuningProblem]:
        """Enumerate the graph's schedulable problems without tuning any.

        Runs the same graph passes as :meth:`compile` (fold constants,
        conv→GEMM, fusion partition) and extracts one
        :class:`TuningProblem` per matmul/reduce group, deduplicated by
        exact signature.  Rule-based groups are skipped — they have no
        schedule to find.  The parallel tuning service shards this list
        across workers; a later :meth:`compile` of the same graph against
        the resulting cache is then all exact hits.
        """
        self._namespace = namespace
        try:
            optimized = lower_conv_to_gemm(fold_constants(graph))
            if self.enable_fusion:
                groups = partition_graph(optimized)
            else:
                groups = [FusedGroup(anchor=op) for op in optimized.nodes]
            problems: list[TuningProblem] = []
            seen: set[str] = set()
            for group in groups:
                spec = build_group_spec(group)
                task = group.anchor.task
                if task.attrs.get('kind', '') == 'matmul':
                    problem = self._matmul_problem(group, spec)
                elif (is_last_axis_reduction(task)
                        and task.attrs.get('reduce_size', 0)
                        >= REDUCE_TEMPLATE_THRESHOLD
                        and self._reduce_space):
                    problem = self._reduce_problem(group, spec)
                else:
                    continue
                if problem.signature in seen:
                    continue
                seen.add(problem.signature)
                problems.append(problem)
        finally:
            self._namespace = ''
        return problems

    def tune_problem(self, problem: TuningProblem) -> float:
        """Tune one extracted problem into this executor's cache.

        Returns the simulated tuning seconds charged (0.0 on a cache hit).
        The cache records written are identical to what :meth:`compile`
        would write for the owning group — signatures travel *with* the
        problem — so tuning workers and compiling executors are
        interchangeable producers of the same cache.
        """
        start = self.clock.elapsed_seconds
        if problem.kind == 'matmul':
            self._schedule_matmul(problem)
        elif problem.kind == 'reduce':
            self._schedule_reduce(problem)
        else:
            raise ValueError(f'unknown tuning problem kind {problem.kind!r}')
        return self.clock.elapsed_seconds - start

    # ------------------------------------------------------------------

    def _compile_group(self, group: FusedGroup) -> CompiledOp:
        spec = build_group_spec(group)
        task = group.anchor.task
        kind = task.attrs.get('kind', '')
        if kind == 'matmul':
            return self._compile_matmul_group(group, spec)
        if (is_last_axis_reduction(task)
                and task.attrs.get('reduce_size', 0) >= REDUCE_TEMPLATE_THRESHOLD):
            return self._compile_reduce_group(group, spec)
        return self._compile_rule_based_group(group, spec)

    def _fusion_traffic(self, spec: GroupSpec) -> tuple[float, float]:
        """Extra (read, write) bytes the fused prologues/epilogues add."""
        anchor_out = spec.group.anchor.output
        extra_read = 0.0
        for step in spec.spec.epilogue_steps:
            for ti in step.task.inputs:
                if ti is not step.chain_input:
                    tensor = spec.tensor_of[ti]
                    extra_read += tensor.nbytes
        extra_write = float(spec.group.output.nbytes - anchor_out.nbytes)
        return extra_read, extra_write

    def _group_signature(self, group: FusedGroup, spec: GroupSpec,
                         *extras) -> str:
        return task_signature(group.anchor.task, self.device,
                              fusion=fusion_fingerprint(spec.spec),
                              extras=extras)

    def _matmul_problem(self, group: FusedGroup, spec: GroupSpec,
                        signature: Optional[str] = None) -> TuningProblem:
        """Extract a matmul group's :class:`TuningProblem` (all three
        signature tiers, sizes, fused traffic) without tuning anything."""
        task = group.anchor.task
        m, n, k = task.attrs['m'], task.attrs['n'], task.attrs['k']
        batch = task.attrs.get('batch', 1)
        extra_read, extra_write = self._fusion_traffic(spec)
        if signature is None:
            signature = self._group_signature(group, spec, 'matmul',
                                              self._space_key, self.try_split_k)
        # The family carries the fusion *structure* (which epilogue ops
        # are fused in — that changes the compiled kernel) but not the
        # fused tensor shapes or weight identities (those scale with the
        # batch / distinguish q from k from v without changing the
        # compiled program), so transfer stays honest about what was
        # actually compiled while still working across buckets
        fusion_structure = (
            tuple(step.task.name for step in spec.spec.epilogue_steps),
            len(spec.spec.prologue_defs))
        # the *effective* split-k decision (batch>1 disables it, §6.3.4)
        # is part of the family: a family tuned without split-k variants
        # must not grant compile-free status to a problem that will
        # enumerate the split-k cross product
        family = task_family_signature(task, self.device,
                                       extras=('matmul', self._space_key,
                                               self.try_split_k and batch == 1,
                                               fusion_structure))
        # the device-family key additionally drops the device spec (and
        # with it the device-derived space key): records become visible
        # to launch-compatible foreign devices, which re-validate and
        # re-measure them locally rather than trusting them blind
        device_family = task_device_family_signature(
            task, self.device,
            extras=('matmul', self.try_split_k and batch == 1,
                    fusion_structure))
        # LPT sharding weight: an upper bound on the cold-tune bill from the
        # candidate *count* alone (base space plus split-k variants, before
        # validity filtering) — cheap enough to compute on the compile hot
        # path, and a consistent over-estimate keeps the shard order stable
        num_factors = 0
        if self.try_split_k and batch == 1:
            num_factors = sum(1 for f in split_k_candidates(m, n, k, self.device)
                              if f > 1)
        num_candidates = len(self.space) * (1 + num_factors)
        costs = self.tuner.costs
        weight = (math.ceil(num_candidates
                            / max(1, costs.parallel_compile_workers))
                  * costs.compile_seconds
                  + num_candidates * costs.measure_seconds)
        return TuningProblem(
            kind='matmul', signature=signature, namespace=self._namespace,
            weight=weight, m=m, n=n, k=k, batch=batch,
            extra_read_bytes=extra_read, extra_write_bytes=extra_write,
            family=family, device_family=device_family)

    def _schedule_matmul(self, p: TuningProblem, *,
                         skip_lookup: bool = False) -> MatmulSchedule:
        """Resolve a matmul problem to its schedule: cache tiers first, then
        tune (cost-model-guided when one is configured); every candidate the
        tuner actually measured is recorded into the cache as cost-model
        training data, and the winning schedule is stored under all tiers.

        ``skip_lookup`` is for callers that already took (and counted) the
        exact-tier miss — a second ``cache.get`` here would double-count it.
        """
        if not skip_lookup:
            sched = self.cache.get(p.signature, kind='matmul')
            if sched is not None:
                return sched
        # a family hit means this GEMM's candidate kernels were already
        # compiled at another batch size; the hardware-centric space is
        # input-size independent (§4.3), so tuning this size re-measures
        # the same candidates without recompiling them — the schedule is
        # still the true optimum for this problem
        precompiled = (self.enable_transfer and
                       self.cache.get_transfer(p.family, kind='matmul')
                       is not None)
        foreign = None
        if not precompiled and self.enable_device_transfer:
            # loosest tier: a launch-compatible device tuned this GEMM.
            # The adopted schedule must (a) lie inside this executor's
            # own space (modulo split-k, which is derived per problem) —
            # restricted ablation spaces must not adopt records their
            # space excludes; (b) launch on the *local* device (a
            # big-smem A100 tile may not); (c) carry split-k only when
            # the local tune of this problem would enumerate that very
            # factor — split_k_candidates gates on the local SM count,
            # and adopting a factor the local space never saw could
            # "beat" the local optimum, breaking cost accounting
            foreign = self.cache.get_device_transfer(
                p.device_family, kind='matmul',
                validate=lambda s: (
                    replace(s, split_k=1) in self._space_base
                    and s.is_valid(self.device)
                    and (s.split_k == 1
                         or (self.try_split_k and p.batch == 1
                             and s.split_k in split_k_candidates(
                                 p.m, p.n, p.k, self.device)))))
        family = p.family
        if foreign is not None:
            result = self.tuner.retarget(p.m, p.n, p.k, foreign,
                                         extra_read_bytes=p.extra_read_bytes,
                                         extra_write_bytes=p.extra_write_bytes,
                                         batch=p.batch)
            # the size-family tier asserts "this family's candidates are
            # compiled locally" — false after a one-kernel retarget, so
            # the adopted record must not join it (later sizes re-adopt
            # through the device tier at one compile + one measure each)
            family = None
        else:
            result = self.tuner.tune(p.m, p.n, p.k, space=self.space,
                                     try_split_k=self.try_split_k,
                                     extra_read_bytes=p.extra_read_bytes,
                                     extra_write_bytes=p.extra_write_bytes,
                                     batch=p.batch, precompiled=precompiled,
                                     cost_model=self.cost_model,
                                     analyzer=self.candidate_analyzer)
        for cand, latency in (result.latencies.items()
                              if self.record_measurements else ()):
            self.cache.record_measurement(MeasurementRecord(
                kind='matmul', m=p.m, n=p.n, k=p.k, batch=p.batch,
                schedule=cand, latency=latency,
                extra_read_bytes=p.extra_read_bytes,
                extra_write_bytes=p.extra_write_bytes))
        self.cache.put(p.signature, 'matmul', result.best_schedule,
                       namespace=p.namespace, family=family,
                       device_family=p.device_family)
        return result.best_schedule

    def _compile_matmul_group(self, group: FusedGroup, spec: GroupSpec) -> CompiledOp:
        task = group.anchor.task
        m, n, k = task.attrs['m'], task.attrs['n'], task.attrs['k']
        batch = task.attrs.get('batch', 1)
        signature = self._group_signature(group, spec, 'matmul',
                                          self._space_key, self.try_split_k)
        extra_read, extra_write = self._fusion_traffic(spec)
        # warm compiles are the serving hot path: resolve the exact tier
        # before paying for the family/device-family signatures a hit
        # never consults
        sched = self.cache.get(signature, kind='matmul')
        if sched is None:
            problem = self._matmul_problem(group, spec, signature=signature)
            sched = self._schedule_matmul(problem, skip_lookup=True)
        stats = matmul_template.matmul_stats(
            m, n, k, sched, name=group.name, batch=batch,
            extra_read_bytes=extra_read, extra_write_bytes=extra_write)
        latency = sum(self.model.latency(s) for s in stats)
        module = None
        if self.build_ir:
            module = self._cached_ir(signature, group.name,
                                     lambda: self._build_fused_matmul_ir(
                                         group, spec, sched, batch))
        return CompiledOp(
            name=group.name, group=group, kind='matmul_template',
            stats=stats, latency=latency, module=module,
            schedule=sched, num_kernels=len(stats))

    def _cached_ir(self, signature: str, group_name: str, build):
        """Memoize built IR modules by (signature, group name).

        When :attr:`check_ir` is on (the default), every freshly built
        module passes the static-analysis gate before it enters the cache:
        ``verify_function`` well-formedness plus bounds / coverage / race
        analysis.  A gate failure raises
        :class:`repro.analysis.AnalysisError` naming the kernel and check.
        """
        key = (signature, group_name)
        if key not in self._ir_cache:
            module = build()
            if self.check_ir:
                from ..analysis import AnalysisError, analyze_module
                report = analyze_module(module)
                if not report.ok:
                    raise AnalysisError(report)
            self._ir_cache[key] = module
        return self._ir_cache[key]

    def _build_fused_matmul_ir(self, group: FusedGroup, spec: GroupSpec,
                               sched: MatmulSchedule, batch: int):
        task = group.anchor.task
        m, n, k = task.attrs['m'], task.attrs['n'], task.attrs['k']
        module = matmul_template.build_matmul_module(m, n, k, sched,
                                                     name=group.name, batch=batch)
        main = module[0]
        anchor_input_params = {task.inputs[0]: main.params[0],
                               task.inputs[1]: main.params[1]}
        if sched.split_k > 1:
            output_param = module[1].params[1]   # C of the reduce kernel
        else:
            output_param = main.params[2]
        fused = apply_fusion(module, spec.spec, anchor_input_params, output_param,
                             name=group.name)
        return fused.module

    def _reduce_problem(self, group: FusedGroup, spec: GroupSpec) -> TuningProblem:
        """A reduce group's :class:`TuningProblem` (mini-tune unit).

        The reduce mini-tune charges no simulated clock time, so its weight
        is zero — it still ships to a worker so the resulting cache is
        complete."""
        return TuningProblem(
            kind='reduce',
            signature=self._group_signature(group, spec, 'reduce'),
            namespace=self._namespace, weight=0.0, task=group.anchor.task)

    def _schedule_reduce(self, p: TuningProblem) -> ReduceSchedule:
        """Resolve a reduce problem: cache first, else the analytic
        mini-tune over the device's reduce space."""
        best_sched = self.cache.get(p.signature, kind='reduce')
        if best_sched is None:
            # mini-tune over the reduce space with the analytic model
            best_latency = math.inf
            for sched in self._reduce_space:
                latency = sum(self.model.latency(s)
                              for s in reduce_stats(p.task, sched))
                if latency < best_latency:
                    best_sched, best_latency = sched, latency
            self.cache.put(p.signature, 'reduce', best_sched,
                           namespace=p.namespace)
        return best_sched

    def _compile_reduce_group(self, group: FusedGroup, spec: GroupSpec) -> CompiledOp:
        task = group.anchor.task
        space = self._reduce_space
        if not space:
            # the device admits no valid reduce schedule: fall back to the
            # rule-based serial reduction — checked before the cache lookup
            # so the permanent fallback does not count a miss every compile
            # (a warm compile must report zero misses)
            return self._compile_rule_based_group(group, spec)
        problem = self._reduce_problem(group, spec)
        signature = problem.signature
        best_sched = self._schedule_reduce(problem)
        stats = reduce_stats(task, best_sched, name=group.name)
        stats = [self._adjust_fused_stats(s, spec) for s in stats]
        latency = sum(self.model.latency(s) for s in stats)
        module = None
        if self.build_ir:
            module = self._cached_ir(signature, group.name,
                                     lambda: self._build_fused_simple_ir(
                                         group, spec,
                                         build_reduce_module(task, best_sched,
                                                             name=group.name)))
        return CompiledOp(
            name=group.name, group=group, kind='reduce_template',
            stats=stats, latency=latency, module=module,
            schedule=best_sched, num_kernels=len(stats))

    def _compile_rule_based_group(self, group: FusedGroup, spec: GroupSpec) -> CompiledOp:
        task = group.anchor.task
        stats = [self._fused_rule_based_stats(group, spec)]
        latency = sum(self.model.latency(s) for s in stats)
        module = None
        if self.build_ir:
            signature = self._group_signature(group, spec, 'rule_based')
            module = self._cached_ir(signature, group.name,
                                     lambda: self._build_fused_simple_ir(
                                         group, spec,
                                         build_rule_based_module(task,
                                                                 name=group.name)))
        return CompiledOp(
            name=group.name, group=group, kind='rule_based',
            stats=stats, latency=latency, module=module, num_kernels=1)

    def _build_fused_simple_ir(self, group: FusedGroup, spec: GroupSpec, module):
        task = group.anchor.task
        func = module[0]
        anchor_input_params = dict(zip(task.inputs, func.params[:len(task.inputs)]))
        output_param = func.params[len(task.inputs)]
        fused = apply_fusion(module, spec.spec, anchor_input_params, output_param,
                             name=group.name)
        return fused.module

    # -- fused statistics --------------------------------------------------

    def _fused_rule_based_stats(self, group: FusedGroup, spec: GroupSpec) -> KernelStats:
        """Streaming stats of a fused rule-based kernel: read every outer
        input once, write the final output once."""
        task = group.anchor.task
        total = task.output.num_elements
        reduces = collect(task.output.value, ReduceCompute)
        reduce_iters = max((r.num_iterations for r in reduces), default=1)
        depthwise = task.attrs.get('depthwise', False)
        # bytes actually touched per input: a gather (embedding) touches at
        # most one element per output element per reduce iteration, not the
        # whole table
        touched_cap = total * reduce_iters
        read_bytes = float(sum(min(t.nbytes, touched_cap * t.dtype.nbytes)
                               for t in group.input_tensors()))
        write_bytes = float(group.output.nbytes)
        return KernelStats(
            name=f'{group.name}_rule_based',
            grid_blocks=max(1, math.ceil(total / ELEMENTWISE_BLOCK)),
            threads_per_block=ELEMENTWISE_BLOCK,
            flops=float(total) * (2.0 + 2.0 * (reduce_iters - 1)),
            gmem_read_bytes=read_bytes * (reduce_iters if depthwise else 1.0),
            gmem_write_bytes=write_bytes,
            regs_per_thread=32,
            ilp=2.0,
            # rule-based reductions re-walk their window per output element;
            # without shared-memory reuse the depthwise conv pays for it with
            # partially-uncoalesced gathers (why Ansor wins MobileNetV2)
            coalesce_factor=0.55 if depthwise else 1.0,
            is_memory_bound_hint=True,
        )

    def _adjust_fused_stats(self, stats: KernelStats, spec: GroupSpec) -> KernelStats:
        extra_read, extra_write = self._fusion_traffic(spec)
        if extra_read == 0 and extra_write == 0:
            return stats
        return replace(stats,
                       gmem_read_bytes=stats.gmem_read_bytes + extra_read,
                       gmem_write_bytes=stats.gmem_write_bytes + extra_write)


def optimize(graph: FlowGraph, device: DeviceSpec = RTX3090,
             clock: Optional[SimulatedClock] = None, **kwargs) -> CompiledGraph:
    """Compile a flow graph with the Hidet pipeline (convenience entry point)."""
    return HidetExecutor(device, clock=clock, **kwargs).compile(graph)
