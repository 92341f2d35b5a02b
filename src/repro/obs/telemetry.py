"""The telemetry facade the serving stack talks to.

A :class:`Telemetry` bundles one run's :class:`~repro.obs.metrics.MetricsRegistry`
and one :class:`~repro.obs.tracing.Tracer` behind the handful
of verbs the simulators actually speak — ``arrival``, ``reject``, ``lost``,
``requeue``, ``batch_formed``, ``batch_done``, ``lifecycle_event``,
``autoscale_decision``, ``queue_depth``, ``memory_committed``.  Each verb
updates the live counters/gauges *and* the trace in one call, so the two
views of a run can never disagree about what happened.

Live metric names are namespaced ``sim.*`` (counted as the run unfolds);
the fold in :func:`repro.serve.stats.compute_stats` derives its own
``serve.*`` metrics afterwards and adopts the ``sim.*`` series via
:meth:`MetricsRegistry.merge` — two prefixes, so a re-derived total never
double-counts a live one.

One ``Telemetry`` records one run: pass it to ``run(trace, telemetry=...)``
(request ids restart per trace, so sharing one across runs would collide
span ids).  A run without telemetry pays nothing for it — every simulator
call site is ``if telemetry is not None``-guarded.  A ``Telemetry`` always
records spans: ``tracer=None`` (the default) gives it a fresh
:class:`~repro.obs.tracing.Tracer`.
"""
from __future__ import annotations

from typing import Iterator, Optional

from .metrics import Gauge, MetricsRegistry
from .tracing import (LIFECYCLE_TRACK, Tracer, chrome_document,
                      write_chrome_trace)

__all__ = ['Telemetry']


class Telemetry:
    """One run's metrics + trace, updated together through one facade."""

    def __init__(self, tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None):
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    # -- request lifecycle ---------------------------------------------------

    def arrival(self, request, now: float) -> None:
        self.metrics.counter('sim.requests.arrived', unit='requests').add()
        self.tracer.arrival(request, now)

    def reject(self, request, now: float, replica: Optional[int] = None,
               reason: str = 'admission') -> None:
        self.metrics.counter('sim.requests.rejected', unit='requests').add()
        self.tracer.reject(request, now, replica=replica, reason=reason)

    def lost(self, request, now: float, replica: Optional[int] = None,
             reason: str = 'failure', tokens: int = 0) -> None:
        self.metrics.counter('sim.requests.lost', unit='requests').add()
        if tokens:
            self.metrics.counter('sim.tokens.lost', unit='tokens').add(tokens)
        self.tracer.lost(request, now, replica=replica, reason=reason,
                         tokens=tokens)

    def requeue(self, request, now: float, replica: int) -> None:
        self.metrics.counter('sim.requests.requeued', unit='requests').add()
        self.tracer.requeue(request, now, replica)

    # -- batching / execution ------------------------------------------------

    def batch_formed(self, batch, replica: int, now: float,
                     queued_after: Optional[int] = None) -> None:
        self.metrics.counter('sim.batches.formed', unit='batches').add()
        self.metrics.histogram('sim.batch.occupancy').observe(batch.occupancy)
        self.metrics.histogram('sim.batch.size',
                               unit='requests').observe(batch.size)
        if queued_after is not None:
            self.queue_depth(now, queued_after, replica=replica)
        self.tracer.batch_formed(batch, replica, now,
                                 queued_after=queued_after)

    def batch_done(self, batch, now: float) -> None:
        self.metrics.counter('sim.batches.executed', unit='batches').add()
        self.metrics.counter('sim.requests.completed',
                             unit='requests').add(len(batch.requests))
        self.metrics.histogram('sim.batch.execute_ms', unit='ms').observe(
            (now - batch.dispatch_time) * 1e3)
        latency = self.metrics.histogram('sim.request.latency_ms', unit='ms')
        for request in batch.requests:
            latency.observe((now - request.arrival) * 1e3)
        self.tracer.batch_done(batch, now)

    # -- continuous (iteration-level) decoding -------------------------------

    def decode_join(self, request, now: float, replica: int,
                    width: Optional[int] = None) -> None:
        """A decode request joined a running batch (its prefill runs now)."""
        self.metrics.counter('sim.decode.joined', unit='requests').add()
        if width is not None:
            self.metrics.histogram('sim.decode.join_width',
                                   unit='slots').observe(width)
        self.tracer.decode_join(request, now, replica, width=width)

    def decode_step(self, now: float, replica: int, width: int,
                    tokens: int, kv_committed_bytes: int = 0) -> None:
        """One decode iteration finished on ``replica`` at batch ``width``,
        emitting ``tokens`` output tokens."""
        self.metrics.counter('sim.decode.steps', unit='steps').add()
        self.metrics.counter('sim.tokens.generated',
                             unit='tokens').add(tokens)
        self.metrics.gauge(f'sim.decode.width.r{replica}',
                           unit='slots').set(now, width)
        self.metrics.gauge(f'sim.kv.committed.r{replica}',
                           unit='bytes').set(now, kv_committed_bytes)

    def decode_complete(self, request, now: float, replica: int,
                        tokens: int) -> None:
        """A decode request hit EOS after ``tokens`` output tokens."""
        self.metrics.counter('sim.requests.completed',
                             unit='requests').add()
        self.metrics.counter('sim.tokens.completed',
                             unit='tokens').add(tokens)
        self.metrics.histogram('sim.request.latency_ms', unit='ms').observe(
            (now - request.arrival) * 1e3)
        self.tracer.decode_complete(request, now, replica, tokens)

    # -- control plane -------------------------------------------------------

    def lifecycle_event(self, kind: str, now: float, replica: int,
                        detail: str = '') -> None:
        self.metrics.counter(f'sim.lifecycle.{kind}', unit='events').add()
        args = {'replica': replica}
        if detail:
            args['detail'] = detail
        self.tracer.instant(f'lifecycle:{kind}', now,
                            track=LIFECYCLE_TRACK, **args)

    def autoscale_decision(self, now: float, active: int, target: int,
                           policy: str = '') -> None:
        self.metrics.counter('sim.autoscale.decisions', unit='events').add()
        self.metrics.gauge('sim.replicas.target',
                           unit='replicas').set(now, target)
        self.tracer.instant('autoscale', now, track=LIFECYCLE_TRACK,
                            active=active, target=target, policy=policy)

    # -- sampled series ------------------------------------------------------

    def queue_depth(self, now: float, depth: int,
                    replica: Optional[int] = None) -> None:
        name = ('sim.queue.depth' if replica is None
                else f'sim.queue.depth.r{replica}')
        self.metrics.gauge(name, unit='requests').set(now, depth)

    def replicas_serving(self, now: float, count: int) -> None:
        self.metrics.gauge('sim.replicas.serving',
                           unit='replicas').set(now, count)

    def memory_committed(self, now: float, replica: int,
                         committed_bytes: float) -> None:
        self.metrics.gauge(f'sim.memory.committed.r{replica}',
                           unit='bytes').set(now, committed_bytes)

    # -- export --------------------------------------------------------------

    def events(self) -> Iterator[tuple[dict, dict]]:
        """The tracer's :meth:`~repro.obs.tracing.Tracer.events`, then
        every gauge sample as a ``C`` (counter) event.

        Perfetto renders counter events as step charts — queue depth,
        target replicas, and committed memory become graphs under the same
        timeline as the request/batch spans.
        """
        yield from self.tracer.events()
        for name in self.metrics.names():
            metric = self.metrics[name]
            if not isinstance(metric, Gauge):
                continue
            for t, value in metric.series():
                yield ({'name': name, 'cat': 'metric', 'ph': 'C',
                        'ts': t * 1e6, 'pid': 0}, {'value': value})

    def chrome_trace(self) -> dict:
        """The :meth:`events` stream as a Chrome trace-event object."""
        return chrome_document(self.events())

    def write_chrome_trace(self, path: str) -> str:
        """Write :meth:`chrome_trace` to ``path`` (indent=1 JSON); returns
        ``path``."""
        return write_chrome_trace(path, self.events())
