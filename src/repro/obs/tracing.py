"""Request tracing: structured spans with Chrome trace-event export.

One :class:`Tracer` records one simulation run as three kinds of record:

* a :class:`RequestSpan` per trace request — arrival through admission,
  queueing, batch formation and execution to exactly one **terminal**
  (``complete`` / ``reject`` / ``lost``), carrying the replica, compiled
  bucket, and dispatch time it picked up along the way;
* a :class:`BatchSpan` per executed batch — the interval a coalesced
  dispatch held a replica's GPU, with model/bucket/occupancy attributes
  (a batch killed mid-flight records no span: its work never finished and
  its requests terminate as ``lost`` instead);
* an :class:`Instant` per point event — batch formation, lifecycle
  transitions (join/kill/revive/retire/rehome/evict), autoscaler
  decisions.

Timestamps are simulated seconds throughout.  :meth:`Tracer.events`
streams the run as Chrome trace events, loadable in Perfetto /
``chrome://tracing``: request lifecycles become async ``b``/``e`` pairs
keyed by request id, batch executions become ``X`` duration events on one
track (``tid``) per replica, and instants become ``i`` events.
:meth:`Tracer.chrome_trace` (the ``traceEvents`` object form) and
:meth:`Tracer.write_chrome_trace` (that object as indent=1 JSON) both read
this one stream.

The tracer also *audits* the run: :meth:`check_invariants` verifies that
every arrival terminated exactly once, that timestamps are sim-time
monotonic within each span, and that every executed batch's interval is
well-formed — the span-level conservation law behind
``ServeStats``' request-conservation property.  One tracer records one
run; reusing it across runs trips the duplicate-arrival check.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

__all__ = ['RequestSpan', 'BatchSpan', 'Instant', 'Tracer',
           'TERMINAL_KINDS', 'LIFECYCLE_TRACK', 'chrome_document',
           'write_chrome_trace']

#: the three ways a request's span may end — exactly one per arrival
TERMINAL_KINDS = ('complete', 'reject', 'lost')

#: pseudo-replica index for control-plane instants (lifecycle, autoscaler);
#: exported on its own named track rather than any replica's
LIFECYCLE_TRACK = -1


@dataclass
class RequestSpan:
    """One request's recorded lifecycle (terminal fields set exactly once)."""

    req_id: int
    model: str
    size: int
    arrival: float
    replica: Optional[int] = None
    dispatch_time: Optional[float] = None
    bucket: Optional[int] = None
    requeued: int = 0                    # times re-admitted after a failure
    prompt_tokens: int = 0               # decode traffic: prefilled prompt
    tokens_emitted: int = 0              # decode traffic: tokens generated
    terminal: Optional[str] = None       # one of TERMINAL_KINDS, or open
    terminal_time: Optional[float] = None
    reason: str = ''                     # e.g. 'admission', 'failure'

    @property
    def is_terminated(self) -> bool:
        return self.terminal is not None


@dataclass(frozen=True)
class BatchSpan:
    """One executed batch: the GPU-holding interval on ``replica``."""

    replica: int
    model: str
    bucket: int
    size: int
    num_requests: int
    start: float                         # dispatch (simulated seconds)
    end: float                           # completion

    @property
    def occupancy(self) -> float:
        return self.size / self.bucket


@dataclass(frozen=True)
class Instant:
    """A point event on a replica track (or the lifecycle control track)."""

    name: str
    time: float
    replica: int = LIFECYCLE_TRACK
    args: dict = field(default_factory=dict)


class Tracer:
    """Record one run's spans; export and audit them afterwards."""

    def __init__(self):
        self.request_spans: list[RequestSpan] = []
        self.batch_spans: list[BatchSpan] = []
        self.instants: list[Instant] = []
        self._open: dict[int, RequestSpan] = {}
        self._by_id: dict[int, RequestSpan] = {}
        self._violations: list[str] = []
        self._thread_names: dict[int, str] = {}

    # -- recording (called by the simulators / batcher / autoscaler) ---------

    def set_track_name(self, replica: int, name: str) -> None:
        """Name a replica's export track (e.g. ``r0:RTX3090``)."""
        self._thread_names[replica] = name

    def arrival(self, request, now: float,
                replica: Optional[int] = None) -> None:
        """A trace request arrived (every request's span starts here)."""
        if request.req_id in self._by_id:
            self._violations.append(
                f'duplicate arrival for request {request.req_id} '
                f'(one tracer records one run)')
            return
        span = RequestSpan(req_id=request.req_id, model=request.model,
                           size=request.size, arrival=now, replica=replica)
        self._open[request.req_id] = span
        self._by_id[request.req_id] = span
        self.request_spans.append(span)

    def _terminate(self, req_id: int, kind: str, now: float,
                   replica: Optional[int], reason: str) -> None:
        span = self._open.pop(req_id, None)
        if span is None:
            known = self._by_id.get(req_id)
            if known is not None:
                self._violations.append(
                    f'request {req_id} terminated twice: '
                    f'{known.terminal!r} then {kind!r}')
            else:
                self._violations.append(
                    f'request {req_id} terminated ({kind!r}) without an '
                    f'arrival')
            return
        span.terminal = kind
        span.terminal_time = now
        span.reason = reason
        if replica is not None:
            span.replica = replica

    def reject(self, request, now: float, replica: Optional[int] = None,
               reason: str = 'admission') -> None:
        """Admission control turned the request away (terminal)."""
        self._terminate(request.req_id, 'reject', now, replica, reason)

    def lost(self, request, now: float, replica: Optional[int] = None,
             reason: str = 'failure', tokens: int = 0) -> None:
        """The request was lost — replica death, or nowhere to re-home
        (terminal).  ``tokens`` records how many output tokens a decode
        request had emitted before the loss (the loud partial count)."""
        span = self._open.get(request.req_id)
        if span is not None and tokens:
            span.tokens_emitted = tokens
        self._terminate(request.req_id, 'lost', now, replica, reason)

    def decode_join(self, request, now: float, replica: int,
                    width: Optional[int] = None) -> None:
        """A decode request joined a running batch: its prefill dispatches
        here (not terminal; tokens stream until EOS or loss).  ``width`` is
        the decode-batch width it joined at, recorded as the span's bucket."""
        span = self._open.get(request.req_id)
        if span is not None:
            span.dispatch_time = now
            span.bucket = width
            span.replica = replica
            span.prompt_tokens = getattr(request, 'prompt_tokens', 0)

    def decode_complete(self, request, now: float, replica: int,
                        tokens: int) -> None:
        """A decode request emitted its EOS token after ``tokens`` output
        tokens (terminal)."""
        span = self._open.get(request.req_id)
        if span is not None:
            span.tokens_emitted = tokens
        self._terminate(request.req_id, 'complete', now, replica, reason='')

    def requeue(self, request, now: float, replica: int) -> None:
        """The request survived its replica's death and re-admitted on
        ``replica`` (not terminal; its span continues there)."""
        span = self._open.get(request.req_id)
        if span is not None:
            span.requeued += 1
            span.replica = replica
            # it re-enters a queue: any earlier dispatch no longer holds
            span.dispatch_time = None
            span.bucket = None
        self.instants.append(Instant(name='requeue', time=now,
                                     replica=replica,
                                     args={'req_id': request.req_id,
                                           'model': request.model}))

    def batch_formed(self, batch, replica: int, now: float,
                     queued_after: Optional[int] = None) -> None:
        """The batcher coalesced a dispatch (requests leave the queue)."""
        for request in batch.requests:
            span = self._open.get(request.req_id)
            if span is not None:
                span.dispatch_time = now
                span.bucket = batch.bucket
                span.replica = replica
        args = {'model': batch.model, 'bucket': batch.bucket,
                'size': batch.size,
                'occupancy': round(batch.occupancy, 4)}
        if queued_after is not None:
            args['queued_after'] = queued_after
        self.instants.append(Instant(name='batch_form', time=now,
                                     replica=replica, args=args))

    def batch_done(self, batch, now: float) -> None:
        """The batch's GPU interval ended: its requests complete."""
        self.batch_spans.append(BatchSpan(
            replica=batch.replica, model=batch.model, bucket=batch.bucket,
            size=batch.size, num_requests=len(batch.requests),
            start=batch.dispatch_time, end=now))
        for request in batch.requests:
            self._terminate(request.req_id, 'complete', now, batch.replica,
                            reason='')

    def instant(self, name: str, now: float,
                track: int = LIFECYCLE_TRACK, **args) -> None:
        """A free-form point event (lifecycle transitions, autoscaler
        decisions) on ``track``'s export track; ``args`` may carry any
        attributes, including a ``replica`` the event is *about*."""
        self.instants.append(Instant(name=name, time=now, replica=track,
                                     args=dict(args)))

    # -- auditing ------------------------------------------------------------

    def terminal_counts(self) -> dict[str, int]:
        """``{'complete': n, 'reject': n, 'lost': n, 'open': n}`` over every
        recorded request span — the totals :class:`ServeStats` must agree
        with."""
        counts = {kind: 0 for kind in TERMINAL_KINDS}
        counts['open'] = 0
        for span in self.request_spans:
            counts[span.terminal if span.is_terminated else 'open'] += 1
        return counts

    def token_counts(self) -> dict[str, int]:
        """Emitted output tokens summed per terminal kind (plus ``open``)
        over every recorded span — the token-granularity totals a decode
        run's :class:`ServeStats` must reconcile with:
        ``complete + lost == num_decode_tokens``."""
        counts = {kind: 0 for kind in TERMINAL_KINDS}
        counts['open'] = 0
        for span in self.request_spans:
            kind = span.terminal if span.is_terminated else 'open'
            counts[kind] += span.tokens_emitted
        return counts

    def check_invariants(self) -> list[str]:
        """Audit the recorded run; returns violations (empty = clean).

        Checks: every arrival terminated in exactly one of
        ``complete``/``reject``/``lost`` (double terminations and
        terminations without arrival were recorded as they happened);
        span timestamps are sim-time monotonic (arrival <= dispatch <=
        terminal); completed requests carry a dispatch and a bucket; and
        every batch span is a well-formed, positively-sized interval.
        """
        problems = list(self._violations)
        for span in self.request_spans:
            rid = f'request {span.req_id}'
            if not span.is_terminated:
                problems.append(f'{rid} never terminated (arrived at '
                                f'{span.arrival:.6f}s, still open)')
                continue
            if span.terminal_time < span.arrival:
                problems.append(
                    f'{rid} terminal at {span.terminal_time:.6f}s before '
                    f'its arrival at {span.arrival:.6f}s')
            if span.dispatch_time is not None:
                if span.dispatch_time < span.arrival:
                    problems.append(
                        f'{rid} dispatched at {span.dispatch_time:.6f}s '
                        f'before its arrival at {span.arrival:.6f}s')
                if span.terminal_time < span.dispatch_time:
                    problems.append(
                        f'{rid} terminal at {span.terminal_time:.6f}s '
                        f'before its dispatch at {span.dispatch_time:.6f}s')
            if span.terminal == 'complete':
                if span.dispatch_time is None or span.bucket is None:
                    problems.append(f'{rid} completed without a recorded '
                                    f'dispatch/bucket')
                if span.replica is None:
                    problems.append(f'{rid} completed without a replica')
                if span.prompt_tokens > 0 and span.tokens_emitted == 0:
                    problems.append(
                        f'{rid} is decode traffic ({span.prompt_tokens} '
                        f'prompt tokens) but completed with zero tokens '
                        f'emitted')
        for i, batch in enumerate(self.batch_spans):
            if batch.end < batch.start:
                problems.append(f'batch span #{i} ends ({batch.end:.6f}s) '
                                f'before it starts ({batch.start:.6f}s)')
            if batch.size < 1 or batch.num_requests < 1:
                problems.append(f'batch span #{i} is empty')
            if batch.size > batch.bucket:
                problems.append(f'batch span #{i} overflows its bucket '
                                f'({batch.size} > {batch.bucket})')
        return problems

    def assert_invariants(self) -> None:
        """Raise ``AssertionError`` listing every violation (none = pass)."""
        problems = self.check_invariants()
        assert not problems, (
            'span-lifecycle invariants violated:\n  '
            + '\n  '.join(problems))

    # -- export --------------------------------------------------------------

    @staticmethod
    def _us(t: float) -> float:
        """Simulated seconds -> trace microseconds."""
        return t * 1e6

    def _tid(self, replica: Optional[int]) -> int:
        if replica is None:
            return 0
        if replica == LIFECYCLE_TRACK:
            return 999_999               # the named control-plane track
        return replica

    def events(self) -> Iterator[tuple[dict, dict]]:
        """Each Chrome trace event as ``(head, args)``, in file order.

        ``head`` holds every key but ``args`` (an event is ``head`` with
        ``args`` appended last).  Request lifecycles are async ``b``/``e``
        pairs keyed by request id (the ``e`` event's ``args.terminal``
        carries the outcome), batch executions are ``X`` duration events
        on per-replica tracks, instants are ``i`` events.
        """
        yield ({'name': 'process_name', 'ph': 'M', 'pid': 0},
               {'name': 'repro.serve simulation'})
        names = dict(self._thread_names)
        names.setdefault(LIFECYCLE_TRACK, 'lifecycle')
        for replica, name in sorted(names.items()):
            yield ({'name': 'thread_name', 'ph': 'M', 'pid': 0,
                    'tid': self._tid(replica)}, {'name': name})
        for span in self.request_spans:
            tid = self._tid(span.replica)
            yield ({'name': f'request:{span.model}', 'cat': 'request',
                    'ph': 'b', 'id': span.req_id,
                    'ts': self._us(span.arrival), 'pid': 0, 'tid': tid},
                   {'req_id': span.req_id, 'model': span.model,
                    'size': span.size})
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
            yield ({'name': f'request:{span.model}', 'cat': 'request',
                    'ph': 'e', 'id': span.req_id,
                    'ts': self._us(span.terminal_time), 'pid': 0,
                    'tid': tid}, args)
        for batch in self.batch_spans:
            yield ({'name': f'{batch.model}[b{batch.bucket}]', 'cat': 'batch',
                    'ph': 'X', 'ts': self._us(batch.start),
                    'dur': self._us(batch.end - batch.start),
                    'pid': 0, 'tid': self._tid(batch.replica)},
                   {'model': batch.model, 'bucket': batch.bucket,
                    'size': batch.size, 'num_requests': batch.num_requests,
                    'occupancy': round(batch.occupancy, 4)})
        for inst in self.instants:
            yield ({'name': inst.name, 'cat': 'event', 'ph': 'i', 's': 't',
                    'ts': self._us(inst.time), 'pid': 0,
                    'tid': self._tid(inst.replica)}, dict(inst.args))

    def chrome_trace(self) -> dict:
        """The run as Chrome trace-event JSON (the object form) — the
        :meth:`events` stream; load the written file in Perfetto
        (https://ui.perfetto.dev) or ``chrome://tracing``."""
        return chrome_document(self.events())

    def write_chrome_trace(self, path: str) -> str:
        """Write :meth:`chrome_trace` to ``path`` (JSON); returns ``path``."""
        return write_chrome_trace(path, self.events())


# -- Chrome trace-event files -------------------------------------------------
#
# A trace file is ``json.dumps(chrome_document(events), indent=1)``, byte for
# byte.  ``indent`` forces json's pure-Python encoder, so the writer instead
# encodes each event's flat ``head`` and ``args`` dicts in one C-encoder call
# each -- the item separator carries the newline and the indent of the dict's
# keys -- and splices the indent=1 braces around them.  Events sit at depth 2
# (``{"traceEvents": [{...}]}``), so head keys are indented 3 spaces and args
# keys 4.

_HEAD = json.JSONEncoder(separators=(',\n   ', ': ')).encode
_ARGS = json.JSONEncoder(separators=(',\n    ', ': ')).encode
_NESTED = json.JSONEncoder(indent=1).encode
#: value types the C call encodes flat; any other value (a list, a dict, a
#: float subclass, ...) goes through the indent=1 encoder instead
_SCALARS = frozenset({str, int, float, bool, type(None)})


def chrome_document(events: Iterable[tuple[dict, dict]]) -> dict:
    """The Chrome trace-event object form of a ``(head, args)`` stream."""
    return {'traceEvents': [dict(head, args=args) for head, args in events],
            'displayTimeUnit': 'ms'}


def _encode_event(head: dict, args: dict) -> str:
    if not args:
        encoded = '{}'
    elif _SCALARS.issuperset(map(type, args.values())):
        encoded = '{\n    ' + _ARGS(args)[1:-1] + '\n   }'
    else:
        # JSON strings never hold a raw newline, so re-indenting every line
        # moves the indent=1 form from depth 0 to the args depth
        encoded = _NESTED(args).replace('\n', '\n   ')
    return '{\n   ' + _HEAD(head)[1:-1] + ',\n   "args": ' + encoded + '\n  }'


def _encode_events(events: Iterable[tuple[dict, dict]]) -> list[str]:
    """Each event of the stream in its indent=1 form at depth 2.

    An event json cannot encode raises the encoder's ``TypeError`` (or
    ``ValueError``) re-raised with the event's name, phase and timestamp.
    """
    parts = []
    for head, args in events:
        try:
            parts.append(_encode_event(head, args))
        except (TypeError, ValueError) as err:
            kind = TypeError if isinstance(err, TypeError) else ValueError
            raise kind(
                f'chrome trace event {head.get("name")!r} (ph '
                f'{head.get("ph")!r}, ts {head.get("ts")!r}): {err}') from err
    return parts


def write_chrome_trace(path: str, events: Iterable[tuple[dict, dict]]) -> str:
    """Write a ``(head, args)`` stream to ``path`` as
    ``json.dumps(chrome_document(events), indent=1)``; returns ``path``.

    Every event is encoded before ``path`` is opened, so an event that
    cannot be encoded raises and leaves no file behind.
    """
    parts = _encode_events(events)
    with open(path, 'w') as f:
        f.write('{\n "traceEvents": [')
        if parts:
            f.write('\n  ')
            f.write(',\n  '.join(parts))
            f.write('\n ')
        f.write('],\n "displayTimeUnit": "ms"\n}')
    return path
