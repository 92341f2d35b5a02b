"""Property-based tests for the schedule cache's append-only record log.

The log replaces the PR-1-era merge-on-save JSON format, whose
read-modify-write cycle let concurrent savers drop each other's entries.
The properties below are what the parallel tuning service leans on:

- *any* interleaving of N writers' ``save`` / ``compact_log`` / ``load``
  operations round-trips to the same final entry set (the union of what
  the writers held);
- ``merge_json`` is commutative and idempotent over value-consistent
  caches (in this system, two tuners that tune the same problem compute
  the same optimum — determinism is what makes the merge a semilattice);
- compaction is canonical: logs reaching the same effective state compact
  to byte-identical files, and compacting twice is a no-op;
- a legacy monolithic-JSON cache file migrates into log form on the first
  ``save``/``compact_log`` without losing records.

Record identity is pinned too: record keys, record JSON and schedule-space
digests equal their ``dataclasses.astuple``/``asdict`` definitions, and the
compacted log of a small fixed cache is pinned byte for byte.
"""
import hashlib
import json
import os
from dataclasses import asdict, astuple

from hypothesis import given, settings, strategies as st

from repro.core.schedule import MatmulSchedule, ReduceSchedule
from repro.core.space import matmul_schedule_space
from repro.gpusim.device import RTX3090
from repro.runtime.cache import (CACHE_FORMAT_VERSION, MeasurementRecord,
                                 ScheduleCache, _read_state, compact_log,
                                 space_fingerprint)

#: small deterministic pool of real schedules to draw entry values from
SCHEDULES = list(matmul_schedule_space(RTX3090))[:8]

#: global signature -> value assignment: every writer that holds signature
#: ``sig_i`` holds the *same* entry for it (value-consistent writers), which
#: is the regime the tuning service runs in — a deterministic tuner cannot
#: produce two different optima for one problem
SIGNATURES = [f'sig_{i:02d}' for i in range(12)]


def _put(cache: ScheduleCache, index: int) -> None:
    cache.put(SIGNATURES[index], 'matmul', SCHEDULES[index % len(SCHEDULES)],
              namespace=f'ns{index % 3}')


def _measure(cache: ScheduleCache, index: int) -> None:
    cache.record_measurement(MeasurementRecord(
        kind='matmul', m=64 * (index + 1), n=128, k=256, batch=1,
        schedule=SCHEDULES[index % len(SCHEDULES)],
        latency=1e-5 * (index + 1)))


def _writer(indices) -> ScheduleCache:
    cache = ScheduleCache()
    for index in indices:
        _put(cache, index)
        _measure(cache, index)
    return cache


# one writer's holdings: which of the global signatures it tuned
writer_strategy = st.lists(st.integers(min_value=0,
                                       max_value=len(SIGNATURES) - 1),
                           min_size=0, max_size=6)


@settings(max_examples=30, deadline=None)
@given(writers=st.lists(writer_strategy, min_size=1, max_size=4),
       order=st.permutations(range(4)),
       compact_after=st.sets(st.integers(min_value=0, max_value=3)))
def test_interleaved_writers_round_trip_to_the_union(tmp_path_factory,
                                                     writers, order,
                                                     compact_after):
    """Any save order, with compactions and loads interleaved anywhere,
    yields the union of every writer's records."""
    path = str(tmp_path_factory.mktemp('log') / 'schedules.jsonl')
    caches = [_writer(indices) for indices in writers]
    expected_sigs = {SIGNATURES[i] for indices in writers for i in indices}
    expected_measurements = len({64 * (i + 1) for indices in writers
                                 for i in indices})
    for step, writer_index in enumerate(i for i in order
                                        if i < len(caches)):
        caches[writer_index].save(path)
        if step in compact_after:
            compact_log(path)
        # a reader racing the writers sees a consistent prefix: every
        # record saved so far replays cleanly
        ScheduleCache().warm(path)
    final = ScheduleCache.load(path)
    assert {sig for sig in SIGNATURES if sig in final} == expected_sigs
    assert len(final) == len(expected_sigs)
    assert final.measurement_count == expected_measurements
    for indices in writers:
        for i in indices:
            assert final.get(SIGNATURES[i], 'matmul') == \
                SCHEDULES[i % len(SCHEDULES)]


@settings(max_examples=30, deadline=None)
@given(a=writer_strategy, b=writer_strategy)
def test_merge_is_commutative_and_idempotent(a, b):
    ab = _writer(a)
    ab.merge_json(_writer(b).to_json())
    ba = _writer(b)
    ba.merge_json(_writer(a).to_json())
    assert ab.to_json() == ba.to_json()            # commutative
    twice = _writer(a)
    twice.merge_json(_writer(a).to_json())
    assert twice.to_json() == _writer(a).to_json()  # idempotent
    again = ScheduleCache()
    again.merge_json(ab.to_json())
    again.merge_json(ab.to_json())
    assert again.to_json() == ab.to_json()


@settings(max_examples=20, deadline=None)
@given(indices=writer_strategy.filter(lambda xs: len(xs) > 0),
       split=st.integers(min_value=0, max_value=6),
       order=st.booleans())
def test_compaction_is_canonical_and_idempotent(tmp_path_factory, indices,
                                                split, order):
    """Two logs reaching the same state — in different record orders, with
    different append histories — compact to byte-identical files."""
    tmp = tmp_path_factory.mktemp('log')
    split = min(split, len(indices))
    first, second = indices[:split], indices[split:]
    path_a, path_b = str(tmp / 'a.jsonl'), str(tmp / 'b.jsonl')
    _writer(first).save(path_a)
    _writer(second).save(path_a)
    if order:
        _writer(second).save(path_b)
        _writer(first).save(path_b)
    else:
        _writer(indices).save(path_b)
    compact_log(path_a)
    compact_log(path_b)
    with open(path_a, 'rb') as fa, open(path_b, 'rb') as fb:
        bytes_a, bytes_b = fa.read(), fb.read()
    assert bytes_a == bytes_b
    compact_log(path_a)                 # compaction is idempotent
    with open(path_a, 'rb') as fa:
        assert fa.read() == bytes_a


def test_torn_trailing_line_is_ignored(tmp_path):
    """A reader racing an in-flight append sees every *completed* record."""
    path = str(tmp_path / 'schedules.jsonl')
    _writer([0, 1, 2]).save(path)
    with open(path, 'a', encoding='utf-8') as f:
        f.write('{"op": "put", "sig": "sig_99", "entry": {"kin')  # torn
    warmed = ScheduleCache.load(path)
    assert len(warmed) == 3
    assert 'sig_99' not in warmed


def test_legacy_json_cache_migrates_into_log_form(tmp_path):
    """A monolithic-JSON cache file (the pre-log format) is readable, and
    the first save/compact rewrites it as a record log without loss."""
    path = str(tmp_path / 'schedules.json')
    legacy = _writer([0, 1])
    with open(path, 'w', encoding='utf-8') as f:
        json.dump(legacy.to_json(), f)

    # readable as-is
    assert len(ScheduleCache.load(path)) == 2

    # a save on top migrates: disk records survive, new records land
    newcomer = _writer([2])
    newcomer.save(path)
    with open(path, 'r', encoding='utf-8') as f:
        header = json.loads(f.readline())
    assert header.get('log') == 1
    assert header.get('version') == CACHE_FORMAT_VERSION
    merged = ScheduleCache.load(path)
    assert len(merged) == 3
    assert merged.measurement_count == 3

    # compacting a legacy file migrates it too
    legacy_path = str(tmp_path / 'legacy2.json')
    with open(legacy_path, 'w', encoding='utf-8') as f:
        json.dump(legacy.to_json(), f)
    kept = compact_log(legacy_path)
    assert kept == 4                     # 2 entries + 2 measurement records
    assert len(ScheduleCache.load(legacy_path)) == 2


def test_concurrent_savers_cannot_drop_entries(tmp_path):
    """The PR-1 regression, pinned: two caches that both loaded the same
    starting state and then tuned disjoint work save concurrently; with
    merge-on-save JSON the second writer's read-modify-write clobbered the
    first, with the append-only log both survive."""
    path = str(tmp_path / 'schedules.jsonl')
    _writer([0]).save(path)
    worker_a = ScheduleCache.load(path)
    worker_b = ScheduleCache.load(path)   # both start from the same state
    _put(worker_a, 1)
    _put(worker_b, 2)
    worker_a.save(path)
    worker_b.save(path)                   # old format: would drop sig_01
    final = ScheduleCache.load(path)
    assert {s for s in SIGNATURES if s in final} == {'sig_00', 'sig_01',
                                                     'sig_02'}
    assert os.path.getsize(path) > 0


# ---------------------------------------------------------------------------
# record identity


def test_record_key_and_json_equal_their_dataclass_definitions():
    schedules = list(matmul_schedule_space(RTX3090))
    records = [MeasurementRecord(kind='matmul', m=49 + i, n=2048, k=512,
                                 batch=1 + i % 3, schedule=sched,
                                 latency=1e-6 * (i + 1),
                                 extra_read_bytes=0.4 * i,
                                 extra_write_bytes=1536.5)
               for i, sched in enumerate(schedules)]
    records.append(MeasurementRecord(
        kind='reduce', m=1, n=1, k=4096, batch=8,
        schedule=ReduceSchedule(block_size=128, items_per_thread=8),
        latency=2e-6))
    for rec in records:
        assert rec.problem_key == (rec.kind, rec.m, rec.n, rec.k, rec.batch,
                                   round(rec.extra_read_bytes),
                                   round(rec.extra_write_bytes))
        assert rec.key == (*rec.problem_key, astuple(rec.schedule))
        assert rec.to_json() == {
            'kind': rec.kind, 'problem': [rec.m, rec.n, rec.k, rec.batch],
            'schedule': asdict(rec.schedule),
            'extra': [rec.extra_read_bytes, rec.extra_write_bytes],
            'latency': rec.latency}
        assert MeasurementRecord.from_json(rec.to_json()) == rec


def test_space_fingerprint_equals_the_astuple_digest():
    space = list(matmul_schedule_space(RTX3090))
    payload = tuple(astuple(s) for s in space)
    expected = hashlib.sha256(repr(payload).encode('utf-8')).hexdigest()[:16]
    assert space_fingerprint(space) == expected == '6da498b1b3546de6'


def _golden_cache() -> ScheduleCache:
    cache = ScheduleCache()
    cache.put('sig_b', 'matmul', MatmulSchedule(split_k=2), namespace='bert',
              family='fam_b', device_family='dev_b')
    cache.put('sig_a', 'reduce', ReduceSchedule(block_size=128,
                                                items_per_thread=8))
    cache.record_measurement(MeasurementRecord(
        kind='matmul', m=128, n=768, k=768, batch=1,
        schedule=MatmulSchedule(), latency=1.25e-05))
    cache.record_measurement(MeasurementRecord(
        kind='matmul', m=49, n=2048, k=512, batch=2,
        schedule=MatmulSchedule(double_buffer=False, block_k=16),
        latency=3.5e-06, extra_read_bytes=1536.0, extra_write_bytes=0.5))
    return cache


GOLDEN_LOG = (
    b'{"log":1,"version":3}\n'
    b'{"entry":{"kind":"reduce","schedule":{"block_size":128,'
    b'"items_per_thread":8}},"op":"put","sig":"sig_a"}\n'
    b'{"entry":{"device_family":"dev_b","family":"fam_b","kind":"matmul",'
    b'"namespace":"bert","schedule":{"block_k":8,"block_warps":[2,2],'
    b'"double_buffer":true,"split_k":2,"thread_layout":[4,8],'
    b'"thread_tile":[4,4],"warp_outer":[2,2]}},"op":"put","sig":"sig_b"}\n'
    b'{"op":"measure","record":{"extra":[0.0,0.0],"kind":"matmul",'
    b'"latency":1.25e-05,"problem":[128,768,768,1],"schedule":{"block_k":8,'
    b'"block_warps":[2,2],"double_buffer":true,"split_k":1,'
    b'"thread_layout":[4,8],"thread_tile":[4,4],"warp_outer":[2,2]}}}\n'
    b'{"op":"measure","record":{"extra":[1536.0,0.5],"kind":"matmul",'
    b'"latency":3.5e-06,"problem":[49,2048,512,2],"schedule":{"block_k":16,'
    b'"block_warps":[2,2],"double_buffer":false,"split_k":1,'
    b'"thread_layout":[4,8],"thread_tile":[4,4],"warp_outer":[2,2]}}}\n')


def test_compacted_log_of_a_fixed_cache_is_golden(tmp_path):
    path = str(tmp_path / 'golden.jsonl')
    _golden_cache().save(path)
    assert compact_log(path) == 4
    with open(path, 'rb') as f:
        assert f.read() == GOLDEN_LOG


def test_warm_matches_merging_the_parsed_json(tmp_path):
    """``warm`` merges the parsed records directly; it must keep the
    entry count, entry order and record order of the ``merge_json`` path
    it replaced — including under a ``max_entries`` cap."""
    path = str(tmp_path / 'schedules.jsonl')
    _golden_cache().save(path)
    _writer([0, 1, 2]).save(path)
    entries, measurements, _ = _read_state(path)
    data = {'version': CACHE_FORMAT_VERSION,
            'entries': {sig: e.to_json() for sig, e in entries.items()},
            'measurements': [r.to_json() for r in measurements.values()]}
    for cap in (None, 3):
        warmed, merged = ScheduleCache(cap), ScheduleCache(cap)
        for cache in (warmed, merged):
            _put(cache, 1)
            _measure(cache, 1)
        assert warmed.warm(path) == merged.merge_json(data)
        assert list(warmed._entries.items()) == list(merged._entries.items())
        assert warmed.measurements() == merged.measurements()
        assert warmed.measurement_version == merged.measurement_version

