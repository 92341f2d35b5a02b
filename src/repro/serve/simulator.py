"""Discrete-event serving simulator over modeled kernel latencies.

Replays a request trace against a :class:`~repro.serve.registry.ModelRegistry`
through a :class:`~repro.serve.batcher.DynamicBatcher`.  Time is entirely
simulated: a dispatched batch occupies the GPU for the bucket's modeled
latency (the sum of its kernels' ``gpusim`` latencies plus launch overhead),
so a run over millions of simulated requests costs milliseconds of host time
and is exactly reproducible.

The event loop is the standard three-event design:

* ``arrival``  — a trace request joins its model's queue;
* ``gpu_free`` — the in-flight batch completes, its requests are recorded;
* ``timer``    — a head-of-line wait deadline fires (the batcher's
  ``max_wait`` knob) so a partial batch can dispatch on an idle GPU.

After every event, if the GPU is idle the batcher is asked for a ready
batch; otherwise requests keep coalescing — which is exactly how dynamic
batching converts queueing delay into occupancy under load.
"""
from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Optional, Sequence

from ..gpusim.decode import DecodeCostModel
from ..obs import Telemetry
from .batcher import (Batch, BatchingPolicy, ContinuousBatcher, DecodePolicy,
                      DynamicBatcher)
from .memory import KVCacheLedger
from .registry import ModelRegistry
from .stats import ServeStats, compute_stats
from .trace import Request

__all__ = ['ServerSimulator', 'SimulationResult', 'CompletedRequest',
           'DecodeSimulator', 'DecodeResult', 'DecodedRequest']

#: host-side cost of launching one coalesced batch (queue pop, tensor
#: gather/scatter for padding) — charged per dispatch, not per request
BATCH_OVERHEAD_SECONDS = 20e-6


@dataclass(frozen=True)
class CompletedRequest:
    """One request's lifecycle: arrival -> batch dispatch -> completion.

    All times are simulated **seconds** since trace start; ``bucket`` is the
    compiled batch bucket that served the request and ``replica`` the fleet
    replica it ran on (0 under the single-GPU simulator).  ``requeued``
    marks a request that survived a replica failure: it was queued on the
    dead replica and re-admitted elsewhere, so its latency includes the
    outage (always ``False`` under the single-GPU simulator).
    """

    request: Request
    dispatch_time: float
    completion: float
    bucket: int
    replica: int = 0
    requeued: bool = False

    @property
    def latency(self) -> float:
        """End-to-end seconds: arrival to completion (queueing + service)."""
        return self.completion - self.request.arrival

    @property
    def queueing_delay(self) -> float:
        """Seconds spent queued before the serving batch dispatched."""
        return self.dispatch_time - self.request.arrival


@dataclass
class SimulationResult:
    """Everything a finished run produced.

    ``completions`` hold every admitted request's lifecycle record;
    ``rejected`` the requests admission control turned away at arrival
    (empty unless the policy sets ``max_queue``); ``batches`` the dispatched
    coalesced batches in dispatch order.
    """

    completions: list[CompletedRequest]
    batches: list[Batch]
    policy: BatchingPolicy
    #: simulated seconds the GPU spent serving batches
    busy_seconds: float = 0.0
    #: arrivals turned away by admission control (policy.max_queue)
    rejected: list[Request] = field(default_factory=list)

    def stats(self, registry: Optional[ModelRegistry] = None,
              cold_start_seconds: Optional[float] = None,
              telemetry: Optional[Telemetry] = None) -> ServeStats:
        """Fold the run into a :class:`~repro.serve.stats.ServeStats`.

        ``registry`` contributes compile-side accounting (cache traffic and
        the cold-start tuning bill); ``cold_start_seconds`` overrides the
        latter (e.g. zero for a registry warmed from a persisted cache).
        ``telemetry`` (the instance the run recorded into) merges its live
        ``sim.*`` metrics into ``stats.metrics``.
        """
        return compute_stats(self.completions, self.batches, registry=registry,
                             cold_start_seconds=cold_start_seconds,
                             rejected=self.rejected,
                             live_metrics=(telemetry.metrics
                                           if telemetry is not None else None))

    @property
    def gpu_utilization(self) -> float:
        """Busy fraction of the simulated span (saturation indicator)."""
        if not self.completions:
            return 0.0
        span = (max(c.completion for c in self.completions)
                - min(c.request.arrival for c in self.completions))
        return self.busy_seconds / span if span > 0 else 1.0


class ServerSimulator:
    """Replay request traces against a registry with dynamic batching.

    Args:
        registry: the compiled models to serve; every trace request's model
            must be registered and its coalesced batch must fit a compiled
            bucket.
        policy: the batcher's dispatch knobs (``max_batch`` samples,
            ``max_wait`` seconds, optional ``max_queue`` admission bound).
        batch_overhead: host-side seconds charged per dispatched batch
            (queue pop, gather/scatter for padding), on top of the bucket's
            modeled GPU latency.

    ``run`` is deterministic: the same trace produces the same completions,
    batch for batch.  The simulator holds no mutable state between runs.
    """

    def __init__(self, registry: ModelRegistry,
                 policy: Optional[BatchingPolicy] = None,
                 batch_overhead: float = BATCH_OVERHEAD_SECONDS):
        self.registry = registry
        # a fresh default per instance — a module-load-time shared default
        # would alias every simulator constructed without a policy
        self.policy = policy if policy is not None else BatchingPolicy()
        self.batch_overhead = batch_overhead

    def service_time(self, model: str, bucket: int) -> float:
        """Simulated seconds one dispatch to ``bucket`` holds the GPU
        (the bucket's modeled kernel latency plus ``batch_overhead``)."""
        return self.registry[model].latency(bucket) + self.batch_overhead

    def run(self, trace: Sequence[Request],
            telemetry: Optional[Telemetry] = None) -> SimulationResult:
        """Replay ``trace`` (any order; sorted internally) to completion.

        Returns a :class:`SimulationResult` whose ``completions`` cover
        every admitted request; with ``policy.max_queue`` set, turned-away
        arrivals land in ``result.rejected`` instead of completing.

        ``telemetry`` (one per run — request ids restart per trace) records
        the run as spans and live metrics; ``None`` keeps the simulator
        observation-free.
        """
        batcher = DynamicBatcher(self.policy, self.registry.bucket_map())
        events: list[tuple[float, int, str, Optional[Request]]] = []
        seq = itertools.count()
        for request in trace:
            heapq.heappush(events, (request.arrival, next(seq), 'arrival', request))

        completions: list[CompletedRequest] = []
        batches: list[Batch] = []
        rejected: list[Request] = []
        busy_seconds = 0.0
        gpu_free_at = 0.0            # GPU is idle iff now >= gpu_free_at
        in_flight: Optional[Batch] = None
        armed_deadline: Optional[float] = None   # earliest pending timer
        # (model, bucket) -> service seconds, priced on first dispatch
        service_times: dict[tuple[str, int], float] = {}

        def dispatch(now: float) -> None:
            nonlocal gpu_free_at, busy_seconds, in_flight, armed_deadline
            batch = batcher.pop_ready(now)
            if batch is None:
                # nothing due yet: arm a timer for the next wait deadline so
                # a partial batch still dispatches on the idle GPU.  One
                # armed timer per deadline — every idle event lands here, so
                # unconditional pushes would flood the heap with duplicates
                deadline = batcher.next_deadline()
                if deadline is not None:
                    when = max(deadline, now)
                    if armed_deadline is None or when < armed_deadline:
                        heapq.heappush(events, (when, next(seq), 'timer', None))
                        armed_deadline = when
                return
            key = (batch.model, batch.bucket)
            service = service_times.get(key)
            if service is None:
                service = service_times[key] = self.service_time(*key)
            gpu_free_at = now + service
            busy_seconds += service
            in_flight = batch
            batches.append(batch)
            if telemetry is not None:
                telemetry.batch_formed(batch, replica=0, now=now,
                                       queued_after=batcher.pending())
            heapq.heappush(events, (gpu_free_at, next(seq), 'gpu_free', None))

        while events:
            now, _, kind, payload = heapq.heappop(events)
            if armed_deadline is not None and now >= armed_deadline:
                armed_deadline = None        # the armed timer is due/spent
            if kind == 'arrival':
                if telemetry is not None:
                    telemetry.arrival(payload, now)
                if not batcher.offer(payload):
                    rejected.append(payload)
                    if telemetry is not None:
                        telemetry.reject(payload, now)
            elif kind == 'gpu_free':
                batch = in_flight
                in_flight = None
                for request in batch.requests:
                    completions.append(CompletedRequest(
                        request=request,
                        dispatch_time=batch.dispatch_time,
                        completion=now,
                        bucket=batch.bucket))
                if telemetry is not None:
                    telemetry.batch_done(batch, now)
            # 'timer' events carry no state — they only force the dispatch
            # attempt below at the deadline instant
            if now >= gpu_free_at and in_flight is None:
                dispatch(now)

        completions.sort(key=attrgetter('completion', 'request.req_id'))
        return SimulationResult(completions=completions, batches=batches,
                                policy=self.policy, busy_seconds=busy_seconds,
                                rejected=rejected)


# ---------------------------------------------------------------------------
# iteration-level (continuous) decode serving


@dataclass(frozen=True)
class DecodedRequest:
    """One decode request's lifecycle: arrival -> join -> EOS.

    ``join_time`` is when the request entered the running batch (prefill),
    ``first_token_time`` when its first output token landed, ``completion``
    when its last token did.  ``tokens_out`` always equals the request's
    sampled ``output_tokens`` — a request that could not finish is *lost*,
    never silently truncated.
    """

    request: Request
    join_time: float
    first_token_time: float
    completion: float
    tokens_out: int
    replica: int = 0

    @property
    def latency(self) -> float:
        """End-to-end seconds: arrival to last token."""
        return self.completion - self.request.arrival

    @property
    def queueing_delay(self) -> float:
        """Seconds waited before joining the running batch."""
        return self.join_time - self.request.arrival

    @property
    def time_to_first_token(self) -> float:
        """Seconds from arrival to the first output token."""
        return self.first_token_time - self.request.arrival


@dataclass
class DecodeResult:
    """Everything a finished decode run produced (token granularity)."""

    completions: list[DecodedRequest]
    policy: DecodePolicy
    continuous: bool
    rejected: list[Request] = field(default_factory=list)
    lost: list[Request] = field(default_factory=list)
    busy_seconds: float = 0.0
    num_decode_steps: int = 0
    #: prompt tokens prefilled across every admitted request
    num_prefill_tokens: int = 0
    #: output tokens emitted, including by requests later lost to failure
    num_decode_tokens: int = 0
    #: decode steps priced with KV spilled past capacity (swap penalty paid)
    kv_overflow_steps: int = 0
    #: sum of per-step priced widths (mean width = this / steps)
    width_step_sum: int = 0
    num_requeued: int = 0
    kv_peak_bytes: dict = field(default_factory=dict)      # lane label -> peak
    kv_capacity_bytes: dict = field(default_factory=dict)  # lane label -> cap

    @property
    def mean_decode_width(self) -> float:
        if self.num_decode_steps == 0:
            return 0.0
        return self.width_step_sum / self.num_decode_steps

    def stats(self, telemetry: Optional[Telemetry] = None) -> ServeStats:
        """Fold the run into a token-aware :class:`ServeStats`."""
        return compute_stats(
            self.completions, [], rejected=self.rejected, lost=self.lost,
            num_requeued=self.num_requeued,
            prefill_tokens=self.num_prefill_tokens,
            decode_tokens=self.num_decode_tokens,
            decode_steps=self.num_decode_steps,
            mean_decode_width=self.mean_decode_width,
            kv_peak_bytes=self.kv_peak_bytes,
            kv_capacity_bytes=self.kv_capacity_bytes,
            kv_overflow_steps=self.kv_overflow_steps,
            live_metrics=(telemetry.metrics
                          if telemetry is not None else None))


class _LiveRequest:
    """A request resident in a decode batch (mutable simulator state)."""

    __slots__ = ('request', 'join_time', 'emitted', 'first_token_time',
                 'recorded')

    def __init__(self, request: Request, join_time: float):
        self.request = request
        self.join_time = join_time
        self.emitted = 0
        self.first_token_time: Optional[float] = None
        self.recorded = False       # completion record written (EOS reached)


class _DecodeLane:
    """One replica's decode state: running batch, KV ledger, join queue."""

    __slots__ = ('index', 'label', 'alive', 'ledger', 'batcher', 'active',
                 'in_flight', 'epoch', 'batch_width', 'busy_seconds')

    def __init__(self, index: int, policy: DecodePolicy,
                 kv_capacity_bytes: int, kv_bytes_per_token: int,
                 strict: bool, record_trail: bool):
        self.index = index
        self.label = f'r{index}'
        self.alive = True
        self.ledger = KVCacheLedger(kv_capacity_bytes, kv_bytes_per_token,
                                    label=f'{self.label}:kv', strict=strict,
                                    record_trail=record_trail)
        self.batcher = ContinuousBatcher(policy)
        self.active: list[_LiveRequest] = []
        self.in_flight = False
        self.epoch = 0
        self.batch_width = 0        # request-level mode: slots held per batch
        self.busy_seconds = 0.0


class DecodeSimulator:
    """Iteration-level decode serving over a prefill/decode cost model.

    Time advances in *decode iterations*: every iteration emits one token
    for each active sequence, priced by :class:`DecodeCostModel` at the
    batch's width; under ``continuous=True`` requests join the running
    batch at any iteration boundary (and leave the instant they emit EOS),
    while ``continuous=False`` replays the request-level regime — a batch
    forms only when the lane is empty and every slot (and its KV) is held
    until the *longest* member finishes.  Admission against each lane's
    :class:`~repro.serve.memory.KVCacheLedger` follows
    ``policy.admission``: ``reserve`` guarantees committed KV never exceeds
    ``kv_capacity_bytes``, ``unbounded`` lets it spill and pays the cost
    model's per-step host-swap penalty.

    ``num_replicas`` lanes serve in parallel (arrivals route to the lane
    with the most free KV); ``failures`` (``FailureEvent``-shaped: time,
    replica, optional revive_at) kill lanes mid-trace — their resident
    requests are *lost loudly* with partial token counts, queued requests
    re-route to survivors — and ``joins`` (times) add fresh lanes mid-trace
    (autoscale-style scale-up).  Deterministic: one trace, one result.
    """

    def __init__(self, cost: DecodeCostModel,
                 policy: Optional[DecodePolicy] = None,
                 kv_bytes_per_token: int = 1,
                 kv_capacity_bytes: Optional[int] = None,
                 continuous: bool = True, num_replicas: int = 1,
                 failures: Optional[Sequence] = None,
                 joins: Sequence[float] = (),
                 record_kv_trail: bool = False):
        self.cost = cost
        self.policy = policy if policy is not None else DecodePolicy()
        if self.policy.max_width > cost.max_width:
            raise ValueError(
                f'policy max_width={self.policy.max_width} exceeds the '
                f'widest compiled bucket ({cost.max_width})')
        if kv_bytes_per_token < 1:
            raise ValueError('kv_bytes_per_token must be >= 1')
        if num_replicas < 1:
            raise ValueError('num_replicas must be >= 1')
        self.kv_bytes_per_token = int(kv_bytes_per_token)
        if kv_capacity_bytes is None:
            kv_capacity_bytes = cost.device.memory_bytes - cost.weights_bytes
        if kv_capacity_bytes < kv_bytes_per_token:
            raise ValueError(
                f'kv_capacity_bytes={kv_capacity_bytes} cannot hold even '
                f'one token at {kv_bytes_per_token} bytes/token')
        self.kv_capacity_bytes = int(kv_capacity_bytes)
        self.continuous = continuous
        self.num_replicas = num_replicas
        # accept a FailureInjector or a plain sequence of FailureEvents
        self.failures = tuple(getattr(failures, 'events', failures or ()))
        self.joins = tuple(sorted(float(t) for t in joins))
        self.record_kv_trail = record_kv_trail
        self.lanes: list[_DecodeLane] = []     # populated per run

    # -- helpers -------------------------------------------------------------

    def _new_lane(self) -> _DecodeLane:
        lane = _DecodeLane(len(self.lanes), self.policy,
                           self.kv_capacity_bytes, self.kv_bytes_per_token,
                           strict=(self.policy.admission == 'reserve'),
                           record_trail=self.record_kv_trail)
        self.lanes.append(lane)
        return lane

    def _route(self, exclude: Optional[int] = None) -> Optional[_DecodeLane]:
        """The alive lane with the most free KV (ties: shortest queue,
        lowest index) — deterministic least-loaded routing."""
        candidates = [lane for lane in self.lanes
                      if lane.alive and lane.index != exclude]
        if not candidates:
            return None
        return min(candidates,
                   key=lambda lane: (lane.ledger.reserved_bytes,
                                     lane.batcher.pending(), lane.index))

    def _oversized(self, request: Request) -> bool:
        """Under reserve admission, a request whose worst-case KV exceeds
        an *empty* lane's capacity could never join: reject it loudly at
        arrival instead of deadlocking the queue."""
        if self.policy.admission != 'reserve':
            return False
        worst = ((request.prompt_tokens + request.output_tokens)
                 * self.kv_bytes_per_token)
        return worst > self.kv_capacity_bytes

    def run(self, trace: Sequence[Request],
            telemetry: Optional[Telemetry] = None) -> DecodeResult:
        """Replay ``trace`` to completion; deterministic.

        Every arrival ends in exactly one of: a completion record with
        ``tokens_out == output_tokens`` (token conservation), a rejection
        (queue full, oversized for the KV capacity, or no live replica),
        or a loud loss to a lane failure.
        """
        result = DecodeResult(completions=[], policy=self.policy,
                              continuous=self.continuous)
        self.lanes = []
        for _ in range(self.num_replicas):
            self._new_lane()

        events: list[tuple[float, int, str, object]] = []
        seq = itertools.count()

        def push(time: float, kind: str, payload: object = None) -> None:
            heapq.heappush(events, (time, next(seq), kind, payload))

        for request in trace:
            push(request.arrival, 'arrival', request)
        for event in self.failures:
            push(event.time, 'kill', event.replica)
            if getattr(event, 'revive_at', None) is not None:
                push(event.revive_at, 'revive', event.replica)
        for time in self.joins:
            push(time, 'lane_join')

        def begin_step(lane: _DecodeLane, now: float) -> None:
            """Admit joiners, price one iteration, schedule its end."""
            joiners: list[Request] = []
            if self.continuous or not lane.active:
                joiners = lane.batcher.next_joiners(
                    len(lane.active), lane.ledger, now=now)
            if not lane.active and not joiners:
                lane.in_flight = False
                return
            for request in joiners:
                live = _LiveRequest(request, join_time=now)
                lane.active.append(live)
                result.num_prefill_tokens += request.prompt_tokens
            width = len(lane.active)
            if not self.continuous and lane.batch_width == 0:
                lane.batch_width = width       # slots held until batch EOS
            priced = width if self.continuous else lane.batch_width
            if telemetry is not None:
                for request in joiners:
                    telemetry.decode_join(request, now, lane.index,
                                          width=priced)
            step = self.cost.decode_step_seconds(priced)
            if joiners:
                step += self.cost.prefill_seconds(
                    sum(r.prompt_tokens for r in joiners), width=priced)
            overflow = lane.ledger.overflow_bytes
            if overflow > 0:
                step += self.cost.swap_penalty_seconds(overflow)
                result.kv_overflow_steps += 1
            lane.busy_seconds += step
            result.busy_seconds += step
            result.num_decode_steps += 1
            result.width_step_sum += priced
            lane.in_flight = True
            push(now + step, 'step_end', (lane.index, lane.epoch))

        def retire(lane: _DecodeLane, live: _LiveRequest, now: float) -> None:
            """Write the completion record at the request's last token."""
            live.recorded = True
            result.completions.append(DecodedRequest(
                request=live.request, join_time=live.join_time,
                first_token_time=live.first_token_time, completion=now,
                tokens_out=live.emitted, replica=lane.index))
            if telemetry is not None:
                telemetry.decode_complete(live.request, now, lane.index,
                                          tokens=live.emitted)

        def end_step(lane: _DecodeLane, now: float) -> None:
            """Emit this iteration's tokens, retire EOS, start the next."""
            emitted = 0
            for live in lane.active:
                if live.emitted < live.request.output_tokens:
                    live.emitted += 1
                    emitted += 1
                    lane.ledger.extend(live.request.req_id, 1, now=now)
                    if live.first_token_time is None:
                        live.first_token_time = now
            result.num_decode_tokens += emitted
            if telemetry is not None:
                telemetry.decode_step(
                    now, lane.index, width=len(lane.active),
                    tokens=emitted,
                    kv_committed_bytes=lane.ledger.committed_bytes)
            done = [live for live in lane.active
                    if live.emitted >= live.request.output_tokens]
            if self.continuous:
                # EOS leaves the batch immediately: record, free KV, free slot
                for live in done:
                    retire(lane, live, now)
                    lane.ledger.release(live.request.req_id, now=now)
                lane.active = [live for live in lane.active
                               if not live.recorded]
            else:
                # request-level regime: finished members stream their answer
                # out (record now) but their slot and KV stay pinned until
                # the whole batch reaches EOS — the cost under comparison
                for live in done:
                    if not live.recorded:
                        retire(lane, live, now)
                if len(done) == len(lane.active):
                    for live in lane.active:
                        lane.ledger.release(live.request.req_id, now=now)
                    lane.active = []
                    lane.batch_width = 0
            lane.in_flight = False
            begin_step(lane, now)

        def lose_resident(lane: _DecodeLane, now: float) -> None:
            """A dying lane's resident requests are lost with their partial
            token counts (recorded EOS survivors already completed)."""
            for live in lane.active:
                if not live.recorded:
                    result.lost.append(live.request)
                    if telemetry is not None:
                        telemetry.lost(live.request, now, replica=lane.index,
                                       tokens=live.emitted)
            lane.active = []
            lane.ledger.clear(now=now)

        def reroute(requests: list[Request], now: float,
                    dead: int) -> None:
            for request in requests:
                target = self._route(exclude=dead)
                if target is None or not target.batcher.offer(request):
                    result.lost.append(request)
                    if telemetry is not None:
                        telemetry.lost(request, now, replica=dead)
                    continue
                result.num_requeued += 1
                if telemetry is not None:
                    telemetry.requeue(request, now, target.index)
                if not target.in_flight:
                    begin_step(target, now)

        while events:
            now, _, kind, payload = heapq.heappop(events)
            if kind == 'arrival':
                request = payload
                if telemetry is not None:
                    telemetry.arrival(request, now)
                lane = self._route()
                reason = None
                if lane is None:
                    reason = 'no_replica'
                elif self._oversized(request):
                    reason = 'kv_oversized'
                elif not lane.batcher.offer(request):
                    reason = 'queue_full'
                if reason is not None:
                    result.rejected.append(request)
                    if telemetry is not None:
                        telemetry.reject(request, now, reason=reason)
                    continue
                if not lane.in_flight:
                    begin_step(lane, now)
            elif kind == 'step_end':
                lane_index, epoch = payload
                lane = self.lanes[lane_index]
                if not lane.alive or lane.epoch != epoch:
                    continue                    # stale: the lane died mid-step
                end_step(lane, now)
            elif kind == 'kill':
                if payload >= len(self.lanes):
                    continue                    # no such lane (yet)
                lane = self.lanes[payload]
                if not lane.alive:
                    continue
                lane.alive = False
                lane.epoch += 1
                lane.in_flight = False
                lane.batch_width = 0
                lose_resident(lane, now)
                if telemetry is not None:
                    telemetry.lifecycle_event('kill', now, lane.index)
                reroute(lane.batcher.drain(), now, dead=lane.index)
            elif kind == 'revive':
                if payload >= len(self.lanes):
                    continue
                lane = self.lanes[payload]
                if lane.alive:
                    continue
                lane.alive = True
                if telemetry is not None:
                    telemetry.lifecycle_event('revive', now, lane.index)
            elif kind == 'lane_join':
                lane = self._new_lane()
                if telemetry is not None:
                    telemetry.lifecycle_event('join', now, lane.index)

        for lane in self.lanes:
            result.kv_peak_bytes[lane.label] = lane.ledger.peak_committed_bytes
            result.kv_capacity_bytes[lane.label] = lane.ledger.capacity_bytes
        result.completions.sort(key=lambda c: (c.completion, c.request.req_id))
        return result
