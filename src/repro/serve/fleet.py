"""Multi-replica GPU fleet simulation with per-replica schedule caches.

The layer above the single-GPU :class:`~repro.serve.simulator.ServerSimulator`
that the ROADMAP's "millions of users" story needs: a :class:`Fleet` of
:class:`Replica`\\ s — each a :class:`~repro.serve.registry.ModelRegistry`
over its own :class:`~repro.gpusim.device.DeviceSpec` and its own
:class:`~repro.runtime.cache.ScheduleCache` — plus a
:class:`FleetSimulator` that routes a request trace across replicas through
a :class:`~repro.serve.placement.PlacementPolicy` and runs every replica's
dynamic batcher in one discrete-event loop.

Two transfer mechanisms keep a growing fleet's tuning bill sublinear:

* homogeneous replicas warm from a shared persisted cache (``warm_from``):
  every schedule is an exact hit, zero tuning seconds;
* heterogeneous replicas (an A100-class part joining an RTX3090 fleet, a
  laptop-class edge node) use the **device-family transfer tier**: the
  foreign record is validated against the local device and re-measured at
  one compile + one measurement per GEMM family instead of a full tune
  (:meth:`~repro.runtime.cache.ScheduleCache.get_device_transfer`).

Because warm-up is that cheap, the fleet can change shape *mid-trace*
(PR 4): an :class:`~repro.serve.lifecycle.Autoscaler` joins and retires
replicas while the trace runs (joins warm from ``warm_from``; retirements
drain their queues before leaving), and a
:class:`~repro.serve.lifecycle.FailureInjector` kills replicas outright —
queued work is re-admitted onto survivors, in-flight work is counted as
lost, and a model whose last host died is re-homed through
:meth:`~repro.serve.placement.PlacementPolicy.rehome`.  Every transition
lands in the run's :class:`~repro.serve.lifecycle.LifecycleEvent` log and
in the replica-seconds bill on :class:`~repro.serve.stats.ServeStats`.

Time is entirely simulated; runs are deterministic and replayable.
"""
from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..gpusim.device import DeviceSpec
from ..obs import Telemetry, percentile
from ..runtime.cache import ScheduleCache
from .batcher import Batch, BatchingPolicy, DynamicBatcher
from .lifecycle import Autoscaler, FailureEvent, LifecycleEvent
from .memory import MemoryModel, footprint_from_graphs, format_bytes
from .placement import PlacementPolicy, RoundRobinPlacement
from .registry import ModelRegistry, RegisteredModel, bucket_ladder
from .simulator import BATCH_OVERHEAD_SECONDS, CompletedRequest
from .stats import ServeStats, compute_stats, format_serving_report
from .trace import Request

__all__ = ['Fleet', 'Replica', 'FleetSimulator', 'FleetResult',
           'format_fleet_report']

GraphBuilder = Callable[[int], 'object']


@dataclass
class Replica:
    """One simulated GPU: a model registry over one device, one cache.

    ``state`` tracks the lifecycle: ``'serving'`` (routable), ``'draining'``
    (scale-down in progress — finishes queued work, takes no new arrivals),
    or ``'dead'`` (killed by failure injection, or fully retired).
    ``joined_at``/``retired_at`` are simulated seconds since trace start;
    initial replicas join at 0.0 and ``retired_at`` stays ``None`` while
    the replica lives.
    """

    index: int
    device: DeviceSpec
    registry: ModelRegistry
    state: str = 'serving'
    joined_at: float = 0.0
    retired_at: Optional[float] = None
    #: the replica's DRAM ledger (capacity from ``device.memory_bytes``);
    #: shared with ``registry`` so registrations commit against it
    memory: Optional[MemoryModel] = None

    @property
    def label(self) -> str:
        return f'r{self.index}:{self.device.name}'

    @property
    def is_serving(self) -> bool:
        """Routable: alive and not draining."""
        return self.state == 'serving'

    @property
    def is_alive(self) -> bool:
        """Able to finish work: serving or draining (not dead)."""
        return self.state != 'dead'

    @property
    def compile_seconds(self) -> float:
        """Simulated tuning seconds this replica paid to host its models."""
        return self.registry.total_compile_seconds

    @property
    def peak_memory_bytes(self) -> int:
        """High-water mark of committed DRAM bytes (0 without accounting)."""
        return self.memory.peak_committed_bytes if self.memory else 0


@dataclass
class _ModelSpec:
    name: str
    builder: Optional[GraphBuilder]
    max_batch: int
    buckets: Optional[Sequence[int]]
    #: declared DRAM reservation; None means "measure from the graphs"
    memory_bytes: Optional[int] = None

    @property
    def ladder(self) -> tuple[int, ...]:
        return (tuple(sorted(set(self.buckets))) if self.buckets
                else bucket_ladder(self.max_batch))


class Fleet:
    """N replicas over (possibly heterogeneous) devices, placement-aware.

    ``register()`` records model specs; :meth:`build` partitions them over
    replicas via the placement policy's :meth:`~PlacementPolicy.partition`
    and pre-compiles each model on its hosting replicas.  Build is lazy
    (the simulator triggers it) so the policy sees the *complete* model set
    when it partitions.  A built fleet can still change shape:
    :meth:`add_replica` grows it mid-run (the autoscaler's join path) and
    :meth:`host_model` re-homes a model onto a live replica after failures.

    Args:
        devices: one :class:`DeviceSpec` per replica, mixing parts freely.
        placement: build-time hosting and serve-time routing policy
            (default :class:`~repro.serve.placement.RoundRobinPlacement`).
        warm_from: optional path to a persisted schedule-cache file every
            replica — including ones joining mid-run — warms from.  Exact
            records (same device) compile for free; foreign-device records
            are used through the device-family transfer tier when
            ``enable_device_transfer`` is on.  A missing, corrupt, or
            version-mismatched file starts replicas cold — a bad cache file
            must never keep a fleet from booting.
        enable_transfer: cross-*size* schedule transfer inside each replica
            (§4.3 input-size independence); on by default, like the registry.
        enable_device_transfer: cross-*device* schedule transfer.  Defaults
            to on exactly when ``warm_from`` is given (that is what foreign
            records are for); pass an explicit bool to override.
        max_cache_entries: optional per-replica schedule-cache LRU bound.
        cost_model: give every replica registry a learned cost model
            (:class:`~repro.tune.RidgeCostModel`) trained on its own cache's
            measurement records — see :class:`ModelRegistry`.
    """

    def __init__(self, devices: Sequence[DeviceSpec],
                 placement: Optional[PlacementPolicy] = None,
                 warm_from: Optional[str] = None,
                 enable_transfer: bool = True,
                 enable_device_transfer: Optional[bool] = None,
                 max_cache_entries: Optional[int] = None,
                 cost_model: bool = False):
        if not devices:
            raise ValueError('a fleet needs at least one replica device')
        self.devices = tuple(devices)
        self.placement = placement if placement is not None else RoundRobinPlacement()
        self.warm_from = warm_from
        self.enable_transfer = enable_transfer
        self.enable_device_transfer = (warm_from is not None
                                       if enable_device_transfer is None
                                       else enable_device_transfer)
        self.max_cache_entries = max_cache_entries
        #: per-replica learned cost models (see ModelRegistry.cost_model)
        self.cost_model = cost_model
        self._specs: dict[str, _ModelSpec] = {}
        #: model name -> DRAM bytes its registration reserves (lazy cache)
        self._footprints: dict[str, int] = {}
        self.replicas: list[Replica] = []
        #: model name -> replica indices that ever hosted it (filled by
        #: build(), grown by add_replica()/host_model(); dead hosts stay
        #: listed — active_hosts() gives the routable view)
        self.hosting: dict[str, tuple[int, ...]] = {}

    # -- registration -------------------------------------------------------

    def register(self, name: str, builder: Optional[GraphBuilder] = None,
                 max_batch: int = 8,
                 buckets: Optional[Sequence[int]] = None,
                 memory_bytes: Optional[int] = None) -> None:
        """Record a model spec for the next :meth:`build`.

        Arguments mirror :meth:`ModelRegistry.register`; compilation is
        deferred until the fleet builds so the placement policy can
        partition the complete model set.  ``memory_bytes`` declares the
        model's DRAM reservation up front (capacity planning against a
        budget); omitted, the fleet measures it from the model's graphs
        before partitioning.
        """
        if self.replicas:
            raise RuntimeError('fleet is already built; register models '
                               'before the first simulation')
        if name in self._specs:
            raise ValueError(f'model {name!r} is already registered')
        if memory_bytes is not None and memory_bytes < 1:
            raise ValueError(f'memory_bytes must be >= 1, got {memory_bytes}')
        self._specs[name] = _ModelSpec(name=name, builder=builder,
                                       max_batch=max_batch, buckets=buckets,
                                       memory_bytes=memory_bytes)

    def _reserve_bytes(self, name: str) -> int:
        """The DRAM reservation registering ``name`` will commit: its
        declared ``memory_bytes``, or a measurement of the ladder's graphs
        (weights + workspace + per-bucket activations), cached fleet-wide
        so partitioning and N replica registrations bill one measurement."""
        if name not in self._footprints:
            spec = self._specs[name]
            if spec.memory_bytes is not None:
                self._footprints[name] = int(spec.memory_bytes)
            else:
                builder = spec.builder
                if builder is None:
                    from ..models import for_batch
                    builder = lambda b, _n=name: for_batch(_n, b)  # noqa: E731
                graphs = {b: builder(b) for b in spec.ladder}
                self._footprints[name] = footprint_from_graphs(
                    name, graphs).total_bytes
        return self._footprints[name]

    def model_footprints(self) -> dict[str, int]:
        """model name -> DRAM bytes its registration reserves."""
        return {name: self._reserve_bytes(name) for name in self._specs}

    def _new_registry(self, device: DeviceSpec, label: str = '') -> ModelRegistry:
        """A replica registry over ``device``, warmed from ``warm_from``,
        accounting against the device's DRAM capacity."""
        cache = ScheduleCache(max_entries=self.max_cache_entries)
        if self.warm_from is not None:
            try:
                cache.warm(self.warm_from, missing_ok=True)
            except (OSError, ValueError):
                pass                     # cold boot beats a crashed replica
        return ModelRegistry(
            device=device, cache=cache,
            enable_transfer=self.enable_transfer,
            enable_device_transfer=self.enable_device_transfer,
            cost_model=self.cost_model,
            memory=MemoryModel(device.memory_bytes, label=label))

    def _register_on(self, registry: ModelRegistry, name: str) -> None:
        spec = self._specs[name]
        registry.register(name, builder=spec.builder,
                          max_batch=spec.max_batch, buckets=spec.buckets,
                          reserve_bytes=self._reserve_bytes(name))

    def build(self) -> 'Fleet':
        """Partition models over replicas and pre-compile them (idempotent).

        Partitioning is capacity-checked: the policy sees every model's
        reservation and every replica's DRAM, and a model that fits nowhere
        raises :class:`~repro.serve.memory.MemoryOverflowError` before any
        tuning seconds are spent.
        """
        if self.replicas:
            return self
        if not self._specs:
            raise ValueError('no models registered')
        names = list(self._specs)
        self.hosting = {
            name: tuple(hosts) for name, hosts
            in self.placement.partition(
                names, len(self.devices),
                footprints=self.model_footprints(),
                capacities=[d.memory_bytes for d in self.devices]).items()}
        for name in names:
            if not self.hosting.get(name):
                raise ValueError(f'placement hosts model {name!r} nowhere')
        for index, device in enumerate(self.devices):
            registry = self._new_registry(device,
                                          label=f'r{index}:{device.name}')
            for name in names:
                if index in self.hosting[name]:
                    self._register_on(registry, name)
            self.replicas.append(Replica(index=index, device=device,
                                         registry=registry,
                                         memory=registry.memory))
        return self

    # -- lifecycle ----------------------------------------------------------

    def add_replica(self, device: DeviceSpec, now: float = 0.0,
                    models: Optional[Sequence[str]] = None) -> Replica:
        """Grow a *built* fleet by one replica (the autoscaler's join path).

        The new replica warms from ``warm_from`` (exact hits for the
        fleet's own device, device-family transfer for a foreign one) and
        hosts ``models``; when that is omitted, the placement policy
        decides through :meth:`PlacementPolicy.models_for_join` — host
        everything for the spreader policies, only the thinnest model for
        model-affine, which keeps scale-up from diluting the per-replica
        cache affinity.  Its tuning bill is on ``replica.compile_seconds``
        as usual — the scale-up-vs-cold experiment reads it from there.
        ``now`` stamps ``joined_at`` in simulated seconds.
        """
        if not self.replicas:
            raise RuntimeError('build() the fleet before adding replicas')
        index = len(self.replicas)
        registry = self._new_registry(device,
                                      label=f'r{index}:{device.name}')
        if models is not None:
            names = list(models)
        else:
            names = list(self.placement.models_for_join(
                list(self._specs), index,
                {m: len(self.active_hosts(m)) for m in self._specs},
                footprints=self.model_footprints(),
                capacity=device.memory_bytes))
        for name in names:
            if name not in self._specs:
                raise KeyError(f'model {name!r} is not registered '
                               f'(have {sorted(self._specs)})')
            self._register_on(registry, name)
        replica = Replica(index=index, device=device, registry=registry,
                          joined_at=now, memory=registry.memory)
        self.replicas.append(replica)
        for name in names:
            self.hosting[name] = self.hosting[name] + (index,)
        return replica

    def host_model(self, index: int, model: str) -> float:
        """Compile ``model`` onto replica ``index`` mid-run (re-homing).

        Returns the simulated tuning seconds the compile charged — zero
        when the replica's cache (or the shared ``warm_from`` file it
        warmed from) already covers the model, the re-measurement bill of
        a transfer tier otherwise.  Idempotent: a replica already hosting
        the model charges nothing.
        """
        replica = self.replicas[index]
        if model not in self._specs:
            raise KeyError(f'model {model!r} is not registered')
        if model in replica.registry:
            if index not in self.hosting[model]:
                self.hosting[model] = self.hosting[model] + (index,)
            return 0.0
        before = replica.registry.total_compile_seconds
        self._register_on(replica.registry, model)
        self.hosting[model] = self.hosting[model] + (index,)
        return replica.registry.total_compile_seconds - before

    def evict_model(self, index: int, model: str) -> int:
        """Drop ``model`` from replica ``index``, freeing its DRAM.

        Returns the bytes released.  This is the *only* path that removes
        an entry from :attr:`hosting` (dead hosts otherwise stay listed):
        an evicted model must stop being routable to that replica
        immediately, or requests would land on a registry that no longer
        knows it.  The caller is responsible for quiescence — the fleet
        simulator's eviction path only picks models with no queued or
        in-flight work on the replica.
        """
        replica = self.replicas[index]
        if model not in replica.registry:
            raise KeyError(f'replica {replica.label} does not host '
                           f'{model!r}')
        freed = replica.registry.evict(model)
        self.hosting[model] = tuple(r for r in self.hosting[model]
                                    if r != index)
        return freed

    # -- introspection --------------------------------------------------------

    @property
    def num_replicas(self) -> int:
        """Current replica count (initial devices before build; the grown
        list — including dead replicas — after)."""
        return len(self.replicas) if self.replicas else len(self.devices)

    def hosts(self, model: str) -> tuple[int, ...]:
        """Every replica index that ever hosted ``model`` (post-build)."""
        if model not in self.hosting:
            raise KeyError(f'model {model!r} is not registered '
                           f'(have {sorted(self.hosting)})')
        return self.hosting[model]

    def active_hosts(self, model: str) -> tuple[int, ...]:
        """The *routable* hosts of ``model``: hosting replicas currently in
        the ``'serving'`` state (dead and draining ones filtered out)."""
        return tuple(r for r in self.hosts(model)
                     if self.replicas[r].is_serving)

    @property
    def models(self) -> dict[str, RegisteredModel]:
        """Per-(model, replica) registered models — the fleet-wide compile
        accounting view :func:`~repro.serve.stats.compute_stats` consumes."""
        merged: dict[str, RegisteredModel] = {}
        for replica in self.replicas:
            for name, model in replica.registry.models.items():
                merged[f'{name}@{replica.label}'] = model
        return merged

    @property
    def total_compile_seconds(self) -> float:
        """Fleet-wide cold-start tuning bill (sum over replicas)."""
        return sum(r.compile_seconds for r in self.replicas)

    def cache_stats(self) -> dict[str, dict]:
        """Per-replica schedule-cache counters, keyed by replica label."""
        return {r.label: r.registry.cache.stats for r in self.replicas}

    def decode_simulator(self, model: str, policy=None, *,
                         kv_bytes_per_token: int, seq_length: int,
                         continuous: bool = True,
                         kv_capacity_bytes: Optional[int] = None,
                         weights_bytes: Optional[int] = None,
                         failures=None, joins=()):
        """A :class:`~repro.serve.simulator.DecodeSimulator` over ``model``'s
        hosting replicas — the fleet's compiled bucket latencies priced as
        decode-step costs.

        The cost model reads the first hosting replica's registered bucket
        latencies and device (decode lanes are assumed homogeneous — the
        usual shape for a decoder fleet); ``weights_bytes`` defaults to the
        model's DRAM reservation, which also sizes each lane's default KV
        budget (device DRAM minus weights).  ``kv_bytes_per_token`` and
        ``seq_length`` come from the model's architecture (e.g.
        :func:`repro.models.gpt2_kv_bytes_per_token`); ``policy`` is a
        :class:`~repro.serve.batcher.DecodePolicy`.  ``failures`` and
        ``joins`` are forwarded to the simulator's lifecycle channel.
        """
        from ..gpusim.decode import DecodeCostModel
        from .simulator import DecodeSimulator
        self.build()
        hosts = self.hosts(model)
        first = self.replicas[hosts[0]]
        registered = first.registry[model]
        if weights_bytes is None:
            weights_bytes = self._reserve_bytes(model)
        cost = DecodeCostModel(
            device=first.device, seq_length=seq_length,
            bucket_latency={b: registered.latency(b)
                            for b in registered.bucket_sizes},
            weights_bytes=weights_bytes)
        return DecodeSimulator(cost, policy,
                               kv_bytes_per_token=kv_bytes_per_token,
                               kv_capacity_bytes=kv_capacity_bytes,
                               continuous=continuous,
                               num_replicas=len(hosts),
                               failures=failures, joins=joins)

    def stats(self) -> dict:
        """Hosting map plus per-replica registry stats (nested dict)."""
        self.build()
        return {
            'hosting': {m: list(h) for m, h in sorted(self.hosting.items())},
            'replicas': {r.label: r.registry.stats() for r in self.replicas},
            'total_compile_seconds': self.total_compile_seconds,
        }


@dataclass
class FleetResult:
    """Everything a finished fleet run produced.

    Mirrors :class:`~repro.serve.simulator.SimulationResult`, with
    per-replica accounting: every completion and batch carries the replica
    index it ran on, and ``busy_seconds`` is indexed by replica.  Lifecycle
    runs additionally fill ``lost`` (requests dropped by failures),
    ``num_requeued``, the ``events`` log, the ``replica_seconds`` capacity
    bill, and the tuning-seconds split between mid-run joins
    (``scale_up_tuning_seconds``) and failure re-homing
    (``rehome_tuning_seconds``).
    """

    fleet: Fleet
    completions: list[CompletedRequest]
    batches: list[Batch]
    policy: BatchingPolicy
    busy_seconds: list[float] = field(default_factory=list)
    rejected: list[Request] = field(default_factory=list)
    #: requests lost to replica failures: in-flight on the dead GPU, or
    #: queued there and refused re-admission (no live host, or the
    #: survivors' admission bounds were full) — never silently dropped
    lost: list[Request] = field(default_factory=list)
    #: successful re-admissions of queued work after a failure
    num_requeued: int = 0
    #: chronological lifecycle log (joins, kills, revives, retires, rehomes)
    events: list[LifecycleEvent] = field(default_factory=list)
    #: integral of live replicas over the run, in replica-seconds
    replica_seconds: float = 0.0
    #: simulated tuning seconds paid by replicas that joined mid-run
    scale_up_tuning_seconds: float = 0.0
    #: simulated tuning seconds paid re-homing orphaned models
    rehome_tuning_seconds: float = 0.0

    def stats(self, cold_start_seconds: Optional[float] = None,
              telemetry: Optional[Telemetry] = None) -> ServeStats:
        """Fleet-wide :class:`ServeStats` (latencies, cache economics,
        rejections, lifecycle losses); pass ``cold_start_seconds`` to
        override the fleet's compile bill (e.g. 0.0 for a fully warmed
        fleet).  Without an override, ``cold_start_seconds`` is the
        *pre-trace* bill only: mid-run tuning (scale-up joins, failure
        re-homing) is subtracted out, so the join bill appears exactly
        once — as ``scale_up_tuning_seconds`` (re-home tuning stays on
        :attr:`rehome_tuning_seconds` here).  ``telemetry`` (the instance
        the run recorded into) merges its live ``sim.*`` metrics into
        ``stats.metrics``."""
        if cold_start_seconds is None:
            cold_start_seconds = (self.fleet.total_compile_seconds
                                  - self.scale_up_tuning_seconds
                                  - self.rehome_tuning_seconds)
        return compute_stats(self.completions, self.batches,
                             registry=self.fleet,
                             cold_start_seconds=cold_start_seconds,
                             rejected=self.rejected, lost=self.lost,
                             num_requeued=self.num_requeued,
                             replica_seconds=self.replica_seconds,
                             scale_up_tuning_seconds=self.scale_up_tuning_seconds,
                             live_metrics=(telemetry.metrics
                                           if telemetry is not None else None),
                             peak_memory_bytes={
                                 r.label: r.memory.peak_committed_bytes
                                 for r in self.fleet.replicas
                                 if r.memory is not None},
                             memory_capacity_bytes={
                                 r.label: r.memory.capacity_bytes
                                 for r in self.fleet.replicas
                                 if r.memory is not None})

    def per_replica(self) -> list[dict]:
        """One summary dict per replica: requests, batches, occupancy,
        busy seconds, utilization over the replica's own *active window*
        (join to retirement/death, or run end while it lived — a replica
        that joined at 90% of the trace and ran saturated reports ~100%,
        not ~10%), and final state."""
        end = (max(c.completion for c in self.completions)
               if self.completions else 0.0)
        rows = []
        for replica in self.fleet.replicas:
            mine = [b for b in self.batches if b.replica == replica.index]
            samples = sum(b.size for b in mine)
            busy = self.busy_seconds[replica.index]
            window = ((replica.retired_at if replica.retired_at is not None
                       else end) - replica.joined_at)
            rows.append({
                'replica': replica.label,
                'state': replica.state,
                'requests': sum(len(b.requests) for b in mine),
                'samples': samples,
                'batches': len(mine),
                'mean_occupancy': (sum(b.occupancy for b in mine) / len(mine)
                                   if mine else 0.0),
                'busy_seconds': busy,
                'utilization': busy / window if window > 0 else 0.0,
                'peak_memory_bytes': replica.peak_memory_bytes,
                'memory_capacity_bytes': (replica.memory.capacity_bytes
                                          if replica.memory else 0),
            })
        return rows


class FleetSimulator:
    """Route a request trace across a fleet's replicas and batch per GPU.

    One shared discrete-event loop drives every replica: arrivals are routed
    by the fleet's placement policy (and admission-controlled against the
    chosen replica's queue bound), each replica runs its own
    :class:`DynamicBatcher`, and a replica dispatches whenever it is idle
    and a batch is ready — the single-GPU simulator's three-event design,
    with every event carrying its replica.

    Lifecycle (both optional):

    * ``autoscaler`` — an :class:`~repro.serve.lifecycle.Autoscaler`
      evaluated every ``config.interval`` simulated seconds; scale-up joins
      a replica on the scaler's device (warming from the fleet's
      ``warm_from`` file), scale-down puts the youngest safe replica into
      ``'draining'`` and removes it once its queues empty.  A replica that
      is the only serving host of some model is never chosen for
      scale-down (that is a failure scenario, not a capacity decision).
    * ``failures`` — an iterable of
      :class:`~repro.serve.lifecycle.FailureEvent`\\ s (e.g. a
      :class:`~repro.serve.lifecycle.FailureInjector`).  A kill drops the
      in-flight batch (its requests are **lost** and counted), re-admits
      queued work onto surviving hosts through the placement policy
      (**requeued**; original arrival kept, so the outage is visible in
      latency), and re-homes any model that lost its last serving host.
      A re-admission the survivors' admission bounds refuse also counts
      as lost-to-failure: the drop is failure-caused, so it never
      pollutes the arrival-time rejection channel.

    The simulator exposes the load view placement and autoscaling policies
    consume: :meth:`queued_samples`, :meth:`backlog_seconds`,
    :meth:`serving_replicas`, and :meth:`recent_p99_ms`.
    """

    def __init__(self, fleet: Fleet, policy: Optional[BatchingPolicy] = None,
                 batch_overhead: float = BATCH_OVERHEAD_SECONDS,
                 autoscaler: Optional[Autoscaler] = None,
                 failures: Optional[Sequence[FailureEvent]] = None):
        self.fleet = fleet
        # a fresh default per instance — a module-load-time shared default
        # would alias every simulator constructed without a policy
        self.policy = policy if policy is not None else BatchingPolicy()
        self.batch_overhead = batch_overhead
        self.autoscaler = autoscaler
        self.failures = tuple(failures) if failures is not None else ()
        self._batchers: list[DynamicBatcher] = []
        self._gpu_free_at: list[float] = []
        self._telemetry: Optional[Telemetry] = None

    # -- load view (consumed by placement and autoscaling policies) ------------

    def queued_samples(self, replica: int) -> int:
        """Samples currently queued on ``replica`` (all its models)."""
        return self._batchers[replica].pending()

    def backlog_seconds(self, replica: int, now: float) -> float:
        """Remaining busy seconds of ``replica``'s in-flight batch."""
        return max(0.0, self._gpu_free_at[replica] - now)

    def serving_replicas(self) -> list[int]:
        """Indices of replicas currently routable (state ``'serving'``)."""
        return [r.index for r in self.fleet.replicas if r.is_serving]

    def memory_utilization(self, replica: int) -> float:
        """Committed fraction of ``replica``'s DRAM (0.0 without
        accounting) — the signal
        :class:`~repro.serve.lifecycle.MemoryPressurePolicy` scales on."""
        memory = self.fleet.replicas[replica].memory
        return memory.utilization if memory is not None else 0.0

    def free_memory_bytes(self, replica: int) -> int:
        """Uncommitted DRAM bytes on ``replica`` (full capacity without
        accounting)."""
        rep = self.fleet.replicas[replica]
        return (rep.memory.free_bytes if rep.memory is not None
                else rep.device.memory_bytes)

    def recent_p99_ms(self, now: float, window: float) -> Optional[float]:
        """p99 latency (ms) of completions in the trailing ``window``
        simulated seconds, or ``None`` when none completed — the signal
        :class:`~repro.serve.lifecycle.P99TargetPolicy` scales on.

        Reads are non-destructive for any caller's window: entries are only
        discarded once older than the *largest* window ever requested this
        run, so a second consumer (e.g. a custom placement policy peeking
        at a short window) cannot truncate the autoscaling policy's signal.
        Completion latencies are only recorded at all when the attached
        autoscaling policy declares ``needs_p99`` (see
        :class:`~repro.serve.lifecycle.AutoscalePolicy`); other runs skip
        the bookkeeping and this returns ``None``.
        """
        self._recent_retention = max(self._recent_retention, window)
        recent = self._recent
        while recent and recent[0][0] < now - self._recent_retention:
            recent.popleft()
        lats = [lat for t, lat in recent if t >= now - window]
        if not lats:
            return None
        return percentile(lats, 99)

    # -- simulation ------------------------------------------------------------

    def service_time(self, replica: int, model: str, bucket: int) -> float:
        """Simulated seconds one dispatch holds ``replica``'s GPU."""
        registry = self.fleet.replicas[replica].registry
        return registry[model].latency(bucket) + self.batch_overhead

    def _push(self, when: float, kind: str, replica: int, payload=None) -> None:
        heapq.heappush(self._events,
                       (when, next(self._seq), kind, replica, payload))

    def _event(self, now: float, kind: str, replica: int,
               detail: str = '') -> None:
        """Record one lifecycle transition — in the run's event log and,
        when the run carries telemetry, as a control-track instant plus the
        serving-replica and committed-DRAM gauge samples (lifecycle
        transitions are exactly the moments those series change)."""
        self._log.append(LifecycleEvent(time=now, kind=kind, replica=replica,
                                        detail=detail))
        tel = self._telemetry
        if tel is not None:
            tel.lifecycle_event(kind, now, replica, detail=detail)
            tel.replicas_serving(now, len(self.serving_replicas()))
            for rep in self.fleet.replicas:
                if rep.memory is not None and rep.is_alive:
                    tel.memory_committed(now, rep.index,
                                         rep.memory.committed_bytes)

    def _dispatch(self, replica: int, now: float) -> None:
        """Try to put a ready batch on ``replica``'s (idle, alive) GPU."""
        if not self.fleet.replicas[replica].is_alive:
            return
        batcher = self._batchers[replica]
        batch = batcher.pop_ready(now)
        if batch is None:
            # arm one timer per pending deadline (see ServerSimulator)
            deadline = batcher.next_deadline()
            if deadline is not None:
                when = max(deadline, now)
                armed = self._armed[replica]
                if armed is None or when < armed:
                    self._push(when, 'timer', replica)
                    self._armed[replica] = when
            return
        batch.replica = replica
        service = self.service_time(replica, batch.model, batch.bucket)
        self._gpu_free_at[replica] = now + service
        self._busy[replica] += service
        self._in_flight[replica] = batch
        self._batches.append(batch)
        if self._telemetry is not None:
            self._telemetry.batch_formed(batch, replica, now,
                                         queued_after=batcher.pending())
        self._push(self._gpu_free_at[replica], 'gpu_free', replica,
                   self._epoch[replica])

    def _try_rehome(self, model: str, now: float) -> Optional[int]:
        """Give an orphaned model a live host, or ``None`` if none exists.

        The placement policy sees every survivor's free DRAM and the
        orphan's reservation, and only answers with a replica the model
        fits on.  When nothing fits, a policy with ``evict_on_overflow``
        (the memory-aware packer) lets the fleet evict redundantly hosted,
        idle models from a survivor to make room; otherwise the orphan's
        traffic is lost rather than overflowing a device.
        """
        serving = self.serving_replicas()
        if not serving:
            return None
        need = self.fleet._reserve_bytes(model)
        free = {r: self.free_memory_bytes(r) for r in serving}
        target = self.fleet.placement.rehome(model, serving,
                                             self.fleet.hosting[model],
                                             free_bytes=free,
                                             need_bytes=need)
        if target is None and getattr(self.fleet.placement,
                                      'evict_on_overflow', False):
            target = self._evict_for_rehome(model, serving, need, now)
        if target is None:
            return None
        self._rehome_tuning += self.fleet.host_model(target, model)
        self._batchers[target].add_model(
            model, self.fleet.replicas[target].registry[model].bucket_sizes)
        self._event(now, 'rehome', target, detail=model)
        return target

    def _evict_for_rehome(self, model: str, serving: Sequence[int],
                          need: int, now: float) -> Optional[int]:
        """Make room for an orphaned ``model`` by evicting redundant models.

        Survivors are tried most-free-DRAM first.  On each, only models
        that are (a) also actively hosted elsewhere, (b) idle here (no
        queued samples) and (c) not the in-flight batch's model are
        evictable — eviction must never lose work or a model's last copy.
        Evicts largest-reservation first until the orphan fits; returns
        the chosen replica, or ``None`` when no survivor can make room.
        """
        for target in sorted(serving,
                             key=lambda r: (-self.free_memory_bytes(r), r)):
            replica = self.fleet.replicas[target]
            memory = replica.memory
            if memory is None:
                continue
            batcher = self._batchers[target]
            in_flight = self._in_flight[target]
            evictable = []
            for name in list(replica.registry.models):
                if name == model:
                    continue
                if in_flight is not None and in_flight.model == name:
                    continue
                if batcher.pending(name) > 0:
                    continue
                others = [r for r in self.fleet.active_hosts(name)
                          if r != target]
                if not others:
                    continue
                evictable.append(name)
            freeable = sum(memory.reserved(name) for name in evictable)
            if memory.free_bytes + freeable < need:
                continue
            for name in sorted(evictable,
                               key=lambda n: -memory.reserved(n)):
                if memory.free_bytes >= need:
                    break
                freed = self.fleet.evict_model(target, name)
                batcher.remove_model(name)
                self._event(now, 'evict', target,
                            detail=f'{name} -{format_bytes(freed)}')
            return target
        return None

    def _route(self, request: Request, now: float) -> Optional[int]:
        """The serving replica ``request`` goes to, re-homing if needed;
        ``None`` means the fleet has nowhere live to put it (lost)."""
        hosts = self.fleet.active_hosts(request.model)
        if not hosts:
            target = self._try_rehome(request.model, now)
            if target is None:
                return None
            hosts = (target,)
        return self.fleet.placement.choose(request, hosts, self, now)

    def _readmit(self, request: Request, now: float, touched: set) -> None:
        """Re-admit a drained request after its replica died."""
        target = self._route(request, now)
        if target is not None and self._batchers[target].offer(request):
            self._num_requeued += 1
            self._requeued_ids.add(request.req_id)
            touched.add(target)
            if self._telemetry is not None:
                self._telemetry.requeue(request, now, target)
        else:
            self._lost.append(request)
            if self._telemetry is not None:
                self._telemetry.lost(request, now,
                                     reason='failure:readmit_refused')

    def _end_active_span(self, replica: int, now: float) -> None:
        since = self._active_since.pop(replica, None)
        if since is not None:
            self._replica_seconds += now - since

    def _kill(self, replica: int, now: float) -> bool:
        """Apply a failure kill; returns whether it actually took effect
        (a dead or never-joined replica makes the kill — and therefore its
        paired revive — a no-op)."""
        if replica >= len(self.fleet.replicas):
            return False   # schedule drawn against a max fleet; never joined
        rep = self.fleet.replicas[replica]
        if not rep.is_alive:
            return False
        if rep.state == 'draining':
            # the failure interrupted a scale-down: remember, so a revive
            # resumes the retirement instead of silently cancelling it
            self._draining_at_kill.add(replica)
        rep.state = 'dead'
        rep.retired_at = now
        self._epoch[replica] += 1        # invalidates the pending gpu_free
        self._armed[replica] = None
        self._end_active_span(replica, now)
        batch = self._in_flight[replica]
        self._in_flight[replica] = None
        if batch is not None:
            # the GPU died mid-batch: its requests are lost, the unspent
            # service time is given back, and the batch leaves the dispatch
            # record — otherwise occupancy/num_batches would count work
            # that is simultaneously counted in num_lost_to_failure
            self._busy[replica] -= max(0.0, self._gpu_free_at[replica] - now)
            self._gpu_free_at[replica] = now
            self._lost.extend(batch.requests)
            self._batches.remove(batch)
            if self._telemetry is not None:
                for request in batch.requests:
                    self._telemetry.lost(request, now, replica=replica,
                                         reason='failure:in_flight')
        self._killed.add(replica)
        self._event(now, 'kill', replica)
        touched: set = set()
        for request in self._batchers[replica].drain():
            self._readmit(request, now, touched)
        for target in sorted(touched):
            if (now >= self._gpu_free_at[target]
                    and self._in_flight[target] is None):
                self._dispatch(target, now)
        return True

    def _revive(self, replica: int, now: float) -> None:
        if replica >= len(self.fleet.replicas):
            return
        rep = self.fleet.replicas[replica]
        # only failure kills are repairable; a replica the autoscaler
        # retired (or that was never down) has left the fleet for good.
        # (Revives are also only *scheduled* for kills that took effect,
        # so a no-op kill cannot resurrect an earlier, unrelated outage.)
        if rep.is_alive or replica not in self._killed:
            return
        self._killed.discard(replica)
        rep.retired_at = None
        self._gpu_free_at[replica] = now
        self._active_since[replica] = now
        self._event(now, 'revive', replica)
        if replica in self._draining_at_kill:
            # it died mid-retirement: resume (and, with its queues drained
            # by the kill, immediately complete) the scale-down instead of
            # silently re-entering service against the autoscaler's target
            self._draining_at_kill.discard(replica)
            rep.state = 'draining'
            self._maybe_finish_retire(replica, now)
        else:
            rep.state = 'serving'

    def _join(self, device: DeviceSpec, now: float) -> None:
        if self._cancelled_joins:
            # a later scale-down cancelled this join before it landed (its
            # _pending_joins slot was already released at decision time)
            self._cancelled_joins -= 1
            return
        self._pending_joins -= 1
        replica = self.fleet.add_replica(device, now=now)
        self._scale_up_tuning += replica.compile_seconds
        self._batchers.append(
            DynamicBatcher(self.policy, replica.registry.bucket_map()))
        self._gpu_free_at.append(now)
        self._in_flight.append(None)
        self._armed.append(None)
        self._busy.append(0.0)
        self._epoch.append(0)
        self._active_since[replica.index] = now
        if self._telemetry is not None:
            self._telemetry.tracer.set_track_name(replica.index, replica.label)
        self._event(now, 'join', replica.index,
                    detail=f'{device.name} +{replica.compile_seconds:.1f}s '
                           f'tuning')

    def _begin_retire(self, replica: int, now: float) -> None:
        rep = self.fleet.replicas[replica]
        rep.state = 'draining'
        self._event(now, 'retire_begin', replica)
        self._maybe_finish_retire(replica, now)

    def _maybe_finish_retire(self, replica: int, now: float) -> None:
        rep = self.fleet.replicas[replica]
        if (rep.state == 'draining' and self._in_flight[replica] is None
                and self._batchers[replica].pending() == 0):
            rep.state = 'dead'
            rep.retired_at = now
            self._end_active_span(replica, now)
            self._event(now, 'retire_done', replica)

    def _can_absorb(self, victim: int, chosen: set) -> bool:
        """Scale-down safety: the survivors must be able to take the
        victim's queued load.  For every model with samples queued on the
        victim, the remaining active hosts' admission headroom (under
        ``policy.max_queue``; unbounded queues always absorb) must cover
        those samples — a conservative static check, since the victim
        drains its own queue but its *future* traffic shifts to survivors
        immediately."""
        cap = self.policy.max_queue
        if cap is None:
            return True
        batcher = self._batchers[victim]
        for model in batcher.buckets:
            pending = batcher.pending(model)
            if pending == 0:
                continue
            survivors = [r for r in self.fleet.active_hosts(model)
                         if r != victim and r not in chosen]
            headroom = sum(max(0, cap - self._batchers[r].pending(model))
                           for r in survivors)
            if headroom < pending:
                return False
        return True

    def _retire_victims(self, count: int) -> list[int]:
        """Scale-down victims, youngest first; a replica that is (or, once
        the tick's earlier victims drain, would become) the only serving
        host of some model is never drained by the autoscaler — a
        multi-replica step must not orphan a model between two picks.
        A victim whose queued load the survivors cannot absorb (see
        :meth:`_can_absorb`) is skipped the same way."""
        victims: list[int] = []
        chosen: set[int] = set()
        for replica in sorted(self.serving_replicas(), reverse=True):
            if len(victims) == count:
                break
            sole_host = any(
                tuple(r for r in self.fleet.active_hosts(model)
                      if r not in chosen) == (replica,)
                for model, hosts in self.fleet.hosting.items()
                if replica in hosts)
            if not sole_host and self._can_absorb(replica, chosen):
                victims.append(replica)
                chosen.add(replica)
        return victims

    def _autoscale_tick(self, now: float, horizon: float) -> None:
        scaler = self.autoscaler
        active = len(self.serving_replicas()) + self._pending_joins
        target = scaler.decide(self, now, active)
        if self._telemetry is not None:
            self._telemetry.autoscale_decision(
                now, active, target, policy=type(scaler.policy).__name__)
        if target > active:
            for _ in range(target - active):
                self._pending_joins += 1
                self._push(now + scaler.config.provision_delay, 'join', -1,
                           scaler.device)
            scaler.record_action(now)
        elif target < active:
            # shed pending (not-yet-landed) joins first: cancelling one
            # costs nothing, draining a live replica costs its warm-up and
            # replica-seconds — only then pick real victims
            deficit = active - target
            cancelled = min(self._pending_joins, deficit)
            if cancelled:
                self._pending_joins -= cancelled
                self._cancelled_joins += cancelled
                deficit -= cancelled
                self._event(now, 'join_cancelled', -1,
                            detail=f'{cancelled} pending')
            victims = self._retire_victims(deficit) if deficit else []
            for victim in victims:
                self._begin_retire(victim, now)
            if victims or cancelled:     # a fully blocked wish burns nothing
                scaler.record_action(now)
        if now + scaler.config.interval <= horizon:
            self._push(now + scaler.config.interval, 'autoscale', -1)

    def run(self, trace: Sequence[Request],
            telemetry: Optional[Telemetry] = None) -> FleetResult:
        """Replay ``trace`` (any order; sorted internally) to completion.

        Builds the fleet if needed, resets the placement policy and the
        autoscaler, then drives the event loop until every admitted request
        completed (or was lost to a failure).  Returns a
        :class:`FleetResult`; request conservation holds on it:
        ``len(trace) == completions + rejected + lost``.

        ``telemetry`` (one per run — request ids restart per trace) records
        every request span, batch interval, lifecycle transition, and
        autoscaler decision; its Chrome export shows one track per replica.

        A lifecycle run *mutates the fleet* (replicas join, die, retire) —
        replaying a scenario means building a fresh :class:`Fleet`, which
        is cheap when warmed from the same cache file.
        """
        fleet = self.fleet.build()
        fleet.placement.reset()
        if self.autoscaler is not None:
            self.autoscaler.reset()
        self._telemetry = telemetry
        n = len(fleet.replicas)
        if telemetry is not None:
            for replica in fleet.replicas:
                telemetry.tracer.set_track_name(replica.index, replica.label)
            telemetry.replicas_serving(0.0, len(self.serving_replicas()))
        self._batchers = [
            DynamicBatcher(self.policy, replica.registry.bucket_map())
            for replica in fleet.replicas]
        self._gpu_free_at = [0.0] * n
        self._in_flight: list[Optional[Batch]] = [None] * n
        self._armed: list[Optional[float]] = [None] * n
        self._busy = [0.0] * n
        self._epoch = [0] * n
        self._events: list[tuple] = []
        self._seq = itertools.count()
        self._completions: list[CompletedRequest] = []
        self._batches: list[Batch] = []
        self._rejected: list[Request] = []
        self._lost: list[Request] = []
        self._requeued_ids: set[int] = set()
        self._num_requeued = 0
        self._log: list[LifecycleEvent] = []
        self._active_since = {i: 0.0 for i in range(n)
                              if fleet.replicas[i].is_alive}
        self._replica_seconds = 0.0
        self._scale_up_tuning = 0.0
        self._rehome_tuning = 0.0
        self._recent: deque = deque()
        self._recent_retention = 0.0
        self._track_recent = (self.autoscaler is not None
                              and getattr(self.autoscaler.policy,
                                          'needs_p99', False))
        self._pending_joins = 0
        self._cancelled_joins = 0
        self._killed: set[int] = set()
        self._draining_at_kill: set[int] = set()

        horizon = max((r.arrival for r in trace), default=0.0)
        for request in trace:
            self._push(request.arrival, 'arrival', -1, request)
        for failure in self.failures:
            # the revive is scheduled by the kill handler, and only when
            # the kill takes effect — a no-op kill must not revive
            self._push(failure.time, 'kill', failure.replica, failure)
        if self.autoscaler is not None:
            self._push(min(self.autoscaler.config.interval, horizon),
                       'autoscale', -1)

        now = 0.0
        while self._events:
            now, _, kind, replica, payload = heapq.heappop(self._events)
            if kind == 'arrival':
                if telemetry is not None:
                    telemetry.arrival(payload, now)
                replica = self._route(payload, now)
                if replica is None:
                    self._lost.append(payload)
                    if telemetry is not None:
                        telemetry.lost(payload, now,
                                       reason='failure:no_live_host')
                    continue
                if not self._batchers[replica].offer(payload):
                    self._rejected.append(payload)
                    if telemetry is not None:
                        telemetry.reject(payload, now, replica=replica)
                    continue
            elif kind == 'gpu_free':
                if payload != self._epoch[replica]:
                    continue             # stale: the replica died mid-batch
                batch = self._in_flight[replica]
                self._in_flight[replica] = None
                for request in batch.requests:
                    self._completions.append(CompletedRequest(
                        request=request,
                        dispatch_time=batch.dispatch_time,
                        completion=now,
                        bucket=batch.bucket,
                        replica=replica,
                        requeued=request.req_id in self._requeued_ids))
                    if self._track_recent:
                        self._recent.append(
                            (now, (now - request.arrival) * 1e3))
                if telemetry is not None:
                    telemetry.batch_done(batch, now)
                self._maybe_finish_retire(replica, now)
            elif kind == 'kill':
                took_effect = self._kill(replica, now)
                if (took_effect and payload is not None
                        and payload.revive_at is not None):
                    self._push(payload.revive_at, 'revive', replica)
                continue
            elif kind == 'revive':
                self._revive(replica, now)
            elif kind == 'join':
                self._join(payload, now)
            elif kind == 'autoscale':
                self._autoscale_tick(now, horizon)
                continue
            if replica is None or replica < 0 or replica >= len(self._batchers):
                continue             # control event, or a never-joined index
            if self._armed[replica] is not None and now >= self._armed[replica]:
                self._armed[replica] = None
            if (now >= self._gpu_free_at[replica]
                    and self._in_flight[replica] is None):
                self._dispatch(replica, now)

        for replica in list(self._active_since):
            self._end_active_span(replica, now)

        self._completions.sort(key=lambda c: (c.completion, c.request.req_id))
        result = FleetResult(fleet=fleet, completions=self._completions,
                             batches=self._batches, policy=self.policy,
                             busy_seconds=self._busy, rejected=self._rejected,
                             lost=self._lost, num_requeued=self._num_requeued,
                             events=self._log,
                             replica_seconds=self._replica_seconds,
                             scale_up_tuning_seconds=self._scale_up_tuning,
                             rehome_tuning_seconds=self._rehome_tuning)
        # hand the run's data to the result and drop our references: a
        # simulator held across a sweep must not pin every past trace's
        # completions/batches in memory (the load-view API stays usable)
        self._completions, self._batches = [], []
        self._rejected, self._lost, self._log = [], [], []
        self._recent = deque()
        self._requeued_ids = set()
        self._events = []
        self._telemetry = None
        return result


def format_fleet_report(result: FleetResult, title: str = 'fleet run') -> str:
    """Human-readable block: fleet-wide stats, a per-replica table, and —
    for lifecycle runs — the event log."""
    stats = result.stats()
    lines = [format_serving_report(stats, title), '  per replica:']
    for row in result.per_replica():
        state = '' if row['state'] == 'serving' else f'  [{row["state"]}]'
        mem = ''
        if row['memory_capacity_bytes']:
            mem = (f'  mem {format_bytes(row["peak_memory_bytes"])}'
                   f'/{format_bytes(row["memory_capacity_bytes"])} peak')
        lines.append(
            f'    {row["replica"]:16s} {row["requests"]:6d} requests '
            f'{row["batches"]:5d} batches  occupancy '
            f'{row["mean_occupancy"] * 100:3.0f}%  utilization '
            f'{row["utilization"] * 100:3.0f}%{mem}{state}')
    if result.events:
        lines.append('  lifecycle events:')
        for event in result.events:
            detail = f'  ({event.detail})' if event.detail else ''
            lines.append(f'    t={event.time * 1e3:8.2f} ms  '
                         f'{event.kind:13s} r{event.replica}{detail}')
    return '\n'.join(lines)
