"""RunCache store behaviour: the one-file entry layout, atomicity,
corruption recovery, LRU cap, the lookup pass and its counters, and the
sampled byte-identity verify."""

import json
import os
import threading

import pytest

from repro.runcache import RunCache, RunSpec, dumps_artifact


def spec(n: int = 0) -> RunSpec:
    return RunSpec(kind="capture", workload="salt", steps=n + 1)


@pytest.fixture()
def cache(tmp_path) -> RunCache:
    return RunCache(tmp_path / "store")


def entry_file(cache: RunCache, s: RunSpec):
    return cache._path(cache.digest(s))


def read_entry(path) -> tuple:
    """``(header dict, body bytes)`` of a one-file entry."""
    header, _, body = path.read_bytes().partition(b"\n")
    return json.loads(header), body


def write_entry(path, header: dict, body: bytes) -> None:
    path.write_bytes(json.dumps(header).encode() + b"\n" + body)


def test_round_trip(cache):
    artifact = {"x": [1, 2, 3], "y": "payload"}
    digest = cache.put(spec(), artifact)
    assert cache.contains(spec())
    assert cache.get(spec()) == artifact
    assert cache.get_bytes(spec()) == dumps_artifact(artifact)
    assert len(digest) == 64


def test_miss_is_none_and_counted(cache):
    assert cache.get(spec()) is None
    assert (cache.session_hits, cache.session_misses) == (0, 1)
    cache.put(spec(), 1)
    assert cache.get(spec()) == 1
    assert (cache.session_hits, cache.session_misses) == (1, 1)
    # persistent counters survive a new handle
    fresh = RunCache(cache.root)
    assert fresh.stats().hits == 1
    assert fresh.stats().misses == 1


# ------------------------------------------------ corruption recovery


def test_entry_is_one_file_header_then_pickle(cache):
    artifact = {"x": [1, 2, 3]}
    digest = cache.put(spec(), artifact)
    path = entry_file(cache, spec())
    assert [p.name for p in path.parent.iterdir()] == [path.name]
    header, body = read_entry(path)
    assert body == dumps_artifact(artifact)
    assert header["digest"] == digest
    assert header["artifact_bytes"] == len(body)
    assert header["spec"] == spec().canonical()
    assert header["label"] == spec().label()


def test_truncated_pickle_is_dropped_and_missed(cache):
    cache.put(spec(), {"big": list(range(1000))})
    path = entry_file(cache, spec())
    path.write_bytes(path.read_bytes()[:-10])  # torn write
    assert cache.get(spec()) is None
    assert not path.exists()  # entry dropped, not left to fail again


def test_garbage_pickle_bytes_are_dropped(cache):
    cache.put(spec(), 42)
    path = entry_file(cache, spec())
    header, _body = read_entry(path)
    garbage = b"\x80\x04not a pickle at all"
    header["artifact_bytes"] = len(garbage)  # size check passes
    write_entry(path, header, garbage)
    assert cache.get(spec()) is None
    assert not path.exists()


def test_missing_meta_is_treated_as_corruption(cache):
    """An entry whose header line is missing, unparsable or lacks the
    artifact length is corruption: dropped, then stored again."""
    bad_headers = [None, b"{not json", b"[1, 2]", b'{"digest": "x"}']
    for n, header in enumerate(bad_headers):
        cache.put(spec(), n)
        path = entry_file(cache, spec())
        _header, body = read_entry(path)
        path.write_bytes(body if header is None else header + b"\n" + body)
        assert cache.get(spec()) is None, header
        assert not path.exists()
        assert cache.session_misses == n + 1
        # and the store recovers on the next put
        cache.put(spec(), 43)
        assert cache.get(spec()) == 43


def test_no_temp_files_left_behind(cache):
    for i in range(5):
        cache.put(spec(i), list(range(100)))
    leftovers = [
        p for p in cache.root.rglob("*") if p.name.endswith(".tmp")
    ]
    assert leftovers == []


def test_concurrent_writers_converge(tmp_path):
    """Many handles racing identical puts: atomic replace means the
    entry is always whole and readable afterwards."""
    root = tmp_path / "shared"
    artifact = {"rows": list(range(500))}
    errors = []

    def writer():
        try:
            handle = RunCache(root)
            for _ in range(10):
                handle.put(spec(), artifact)
                got = handle.get(spec())
                if got is not None and got != artifact:
                    errors.append(got)
        except Exception as exc:  # pragma: no cover - the failure mode
            errors.append(exc)

    threads = [threading.Thread(target=writer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert RunCache(root).get(spec()) == artifact


# ------------------------------------------------------------ LRU cap


def test_lru_eviction_prefers_stale_entries(tmp_path):
    payload = b"x" * 1000
    probe = RunCache(tmp_path / "probe")
    probe.put_bytes(spec(), payload)
    size = entry_file(probe, spec()).stat().st_size  # header included
    cache = RunCache(tmp_path / "small", max_bytes=int(3.5 * size))
    for i in range(3):
        cache.put_bytes(spec(i), payload)
    # make spec(0) the most recently used despite being written first
    stamps = {0: 300.0, 1: 100.0, 2: 200.0}
    for i, stamp in stamps.items():
        os.utime(entry_file(cache, spec(i)), (stamp, stamp))
    cache.put_bytes(spec(3), payload)  # four entries > 3.5: evict one
    assert cache.get_bytes(spec(1)) is None  # oldest stamp went
    for kept in (0, 2, 3):
        assert cache.get_bytes(spec(kept)) == payload


def test_clear_removes_everything(cache):
    for i in range(4):
        cache.put(spec(i), i)
    assert cache.clear() == 4
    assert cache.stats().entries == 0
    assert cache.get(spec(0)) is None


def test_stats_reports_kinds_and_sizes(cache):
    cache.put(spec(), 1)
    cache.put(
        RunSpec(
            kind="observe", workload="salt", steps=1,
            threads=2, machine="i7-920",
        ),
        2,
    )
    stats = cache.stats()
    assert stats.entries == 2
    assert stats.by_kind == {"capture": 1, "observe": 1}
    assert stats.total_bytes > 0
    assert "run cache at" in stats.render()


def test_bad_max_bytes_rejected(tmp_path):
    with pytest.raises(ValueError, match="max_bytes"):
        RunCache(tmp_path, max_bytes=0)


# ------------------------------------------------------------- verify


def test_verify_confirms_byte_identity(cache):
    from repro.runcache import capture_spec, run_and_store

    run_and_store(cache, capture_spec("salt", 1))
    reports = cache.verify(sample=1, seed=0)
    assert len(reports) == 1
    assert reports[0].ok
    assert reports[0].detail == "byte-identical"


def test_verify_flags_a_tampered_artifact(cache):
    from repro.runcache import capture_spec, run_and_store

    run_and_store(cache, capture_spec("salt", 1))
    path = entry_file(cache, capture_spec("salt", 1))
    header, body = read_entry(path)
    tampered = body + b"\x00"
    header["artifact_bytes"] = len(tampered)
    write_entry(path, header, tampered)
    reports = cache.verify(sample=1, seed=0)
    assert len(reports) == 1
    assert not reports[0].ok
    assert "MISMATCH" in reports[0].detail


def test_verify_empty_store_is_empty_list(cache):
    assert cache.verify(sample=3) == []


# ------------------------------------------- crash-safe put hardening


def _armed_plan(tmp_path, **kwargs):
    from repro.faults.process import ProcessFaultPlan, activate

    plan = ProcessFaultPlan(state_dir=str(tmp_path / "faults"), **kwargs)
    activate(plan)
    return plan


def test_enospc_put_is_absorbed_as_a_miss(cache, tmp_path):
    from repro.faults.process import deactivate

    _armed_plan(tmp_path, enospc_kinds=("capture",), enospc_puts=1)
    try:
        digest = cache.put(spec(), {"data": 1})  # fails, absorbed
        assert len(digest) == 64  # digest still returned, no raise
        assert cache.session_put_failures == 1
        assert cache.get(spec()) is None  # the entry stayed a miss
        assert cache.stats().put_failures == 1
        cache.put(spec(), {"data": 1})  # slot spent: this one lands
        assert cache.get(spec()) == {"data": 1}
    finally:
        deactivate()


def test_truncated_put_is_caught_by_read_side_length_check(
    cache, tmp_path
):
    from repro.faults.process import deactivate

    _armed_plan(tmp_path, truncate_kinds=("capture",), truncate_puts=1)
    try:
        artifact = {"payload": list(range(100))}
        cache.put(spec(), artifact)  # torn: half the bytes hit disk
        # meta recorded the intended length, so the read detects it,
        # drops the torn pair, and reports a plain miss
        assert cache.get(spec()) is None
        assert not cache.contains(spec())
        cache.put(spec(), artifact)
        assert cache.get_bytes(spec()) == dumps_artifact(artifact)
    finally:
        deactivate()


def test_orphaned_tmp_files_reaped_on_open(cache, tmp_path):
    import time

    cache.put(spec(), 1)
    shard = next((cache.root / "objects").iterdir())
    old = shard / ".dead-writer.entry.1234.tmp"
    old.write_bytes(b"half a put")
    stale = time.time() - 7200
    os.utime(old, (stale, stale))
    fresh = shard / ".live-writer.entry.5678.tmp"
    fresh.write_bytes(b"in flight")

    reopened = RunCache(cache.root)  # reap runs on every store open
    assert not old.exists()  # the crashed writer's orphan is gone
    assert fresh.exists()  # a live concurrent writer's file survives
    assert reopened.get(spec()) == 1  # sound entries untouched


def test_put_temp_files_are_reaped_when_orphaned(cache, monkeypatch):
    """A put's own temp-file name is one ``reap_orphans`` matches and
    the entry scan skips: a writer that dies between writing it and
    the replace leaves an orphan the next open removes once it is
    older than ``ORPHAN_TMP_MAX_AGE``."""
    import time

    from repro.runcache.store import ORPHAN_TMP_MAX_AGE

    temps = []
    replace = os.replace

    def spy(src, dst):
        temps.append(src)
        replace(src, dst)

    monkeypatch.setattr(os, "replace", spy)
    cache.put(spec(), 1)
    cache.put(spec(1), 2)
    monkeypatch.undo()
    old, young = temps
    old.write_bytes(b"half a put")
    stale = time.time() - ORPHAN_TMP_MAX_AGE - 60
    os.utime(old, (stale, stale))
    young.write_bytes(b"in flight")
    assert old.name.startswith(".") and old.name.endswith(".tmp")
    assert old.name != young.name
    assert cache.stats().entries == 2  # temp files are not entries

    reopened = RunCache(cache.root)
    assert not old.exists()
    assert young.exists()
    assert reopened.get(spec()) == 1


def test_put_into_a_new_shard_writes_once(cache, monkeypatch):
    """A handle makes each shard before its first write there, so a
    put into a new shard writes its temp file once and leaves none."""
    writes = []
    atomic_write = RunCache._atomic_write

    def counted(self, path, data):
        writes.append(path)
        atomic_write(self, path, data)

    monkeypatch.setattr(RunCache, "_atomic_write", counted)
    for i in range(5):
        cache.put(spec(i), i)
    assert len(writes) == 5
    assert cache.session_put_failures == 0
    assert [cache.get(spec(i)) for i in range(5)] == list(range(5))
    assert not [p for p in cache.root.rglob("*") if p.name.endswith(".tmp")]


# -------------------------------------------- incremental byte estimate


def test_put_keeps_byte_estimate_in_sync(tmp_path):
    """Routine puts maintain the stored-bytes estimate incrementally
    (one directory scan on the first put, O(1) after) — it must track
    the ground-truth entry scan exactly while no writer races."""
    cache = RunCache(tmp_path / "acct")
    assert cache._approx_bytes is None  # no scan before the first put
    for n in range(4):
        cache.put(spec(n), {"payload": list(range(50 * (n + 1)))})
        assert cache._approx_bytes == sum(
            e["bytes"] for e in cache._entries()
        )


def test_cap_enforcement_resyncs_estimate(tmp_path):
    cache = RunCache(tmp_path / "small", max_bytes=2000)
    for n in range(6):
        cache.put(spec(n), {"payload": list(range(200))})
    entries = cache._entries()
    assert len(entries) < 6  # the cap evicted
    assert sum(e["bytes"] for e in entries) <= 2000
    # eviction's full scan resynced the estimate to ground truth
    assert cache._approx_bytes == sum(e["bytes"] for e in entries)


def test_fresh_handle_defers_the_scan_until_first_put(cache):
    cache.put(spec(), {"payload": [1, 2, 3]})
    reopened = RunCache(cache.root)
    assert reopened._approx_bytes is None
    reopened.put(spec(1), {"payload": [4, 5]})
    assert reopened._approx_bytes == sum(
        e["bytes"] for e in reopened._entries()
    )


# ----------------------------------------------------- the lookup pass


def counter_records(cache: RunCache) -> list:
    """The store's appended counter records, in write order."""
    path = cache.root / "counters.jsonl"
    return [json.loads(line) for line in path.read_text().splitlines()]


def test_cold_sweep_replaces_stats_once(tmp_path, monkeypatch):
    """A 200-spec cold sweep looks every spec up in one pass: one
    appended counter record for the pass and no counter file replaced,
    yet one session count and one ``cache.lookup`` event per spec."""
    from repro.runcache import capture_spec, sweep
    from repro.telemetry import runtime as telemetry_runtime
    from repro.telemetry.merge import load_records

    specs = [capture_spec("gas-8", 1, seed=i) for i in range(200)]
    cache = RunCache(tmp_path / "store")
    replaced = []
    real_replace = os.replace

    def spy(src, dst, *args, **kwargs):
        replaced.append(os.path.basename(dst))
        return real_replace(src, dst, *args, **kwargs)

    monkeypatch.setattr(os, "replace", spy)
    telemetry_runtime.activate(tmp_path / "tel", label="pass")
    try:
        result = sweep(specs, cache, jobs=1)
    finally:
        telemetry_runtime.deactivate()
    assert result.misses == 200
    assert counter_records(cache) == [{"hits": 0, "misses": 200}]
    assert all(name.endswith(".entry") for name in replaced)
    assert (cache.session_hits, cache.session_misses) == (0, 200)
    assert (cache.stats().hits, cache.stats().misses) == (0, 200)
    records, _ = load_records(tmp_path / "tel")
    lookups = [
        r for r in records
        if r.get("kind") == "event" and r["name"] == "cache.lookup"
    ]
    assert len(lookups) == 200
    assert not any(r["attrs"]["hit"] for r in lookups)


def test_single_spec_unit_is_not_looked_up_twice(tmp_path):
    """The sweep's pass missed the spec, so its unit executes and
    stores without a second lookup; the nested capture's load keeps
    its own."""
    from repro.runcache import observe_spec, sweep

    cache = RunCache(tmp_path / "store")
    result = sweep([observe_spec("salt", 2, 2, "i7-920")], cache, jobs=1)
    assert result.misses == 1
    assert (cache.session_hits, cache.session_misses) == (0, 2)
    assert counter_records(cache) == [
        {"hits": 0, "misses": 1}, {"hits": 0, "misses": 1},
    ]
    again = sweep([observe_spec("salt", 2, 2, "i7-920")], cache, jobs=1)
    assert again.hits == 1
    assert (cache.stats().hits, cache.stats().misses) == (1, 2)


def _lookups(root: str, n: int) -> int:
    """``n`` single-spec lookups through a fresh handle on ``root``."""
    cache = RunCache(root)
    for i in range(n):
        cache.get(spec(i % 4))
    return n


def test_concurrent_lookups_lose_no_counter_update(tmp_path):
    """Four processes looking up on one store: every lookup is counted
    once in the cumulative counters."""
    from concurrent.futures import ProcessPoolExecutor

    cache = RunCache(tmp_path / "store")
    cache.put(spec(0), 0)
    cache.put(spec(1), 1)
    root = str(cache.root)
    with ProcessPoolExecutor(max_workers=4) as pool:
        made = sum(pool.map(_lookups, [root] * 4, [200] * 4))
    stats = cache.stats()
    assert made == 800
    assert stats.hits + stats.misses == made
    assert (stats.hits, stats.misses) == (400, 400)


def test_torn_counter_record_is_skipped(cache):
    cache.get(spec())
    with open(cache.root / "counters.jsonl", "ab") as fh:
        fh.write(b'{"hits":7,"mis')  # a writer that died mid-record
    assert (cache.stats().hits, cache.stats().misses) == (0, 1)


def test_clear_resets_the_counters(cache):
    cache.put(spec(), 1)
    cache.get(spec())
    cache.get(spec(1))
    assert (cache.stats().hits, cache.stats().misses) == (1, 1)
    cache.clear()
    assert (cache.stats().hits, cache.stats().misses) == (0, 0)
    assert not (cache.root / "counters.jsonl").exists()
    cache.get(spec())
    assert (cache.stats().hits, cache.stats().misses) == (0, 1)


def test_cache_stats_json_keeps_its_schema(capsys, tmp_path):
    """``repro cache stats --json``: the same keys and types, with the
    counters summed from the appended records."""
    from repro.cli import main

    cache = RunCache(tmp_path / "store")
    cache.put(spec(), 1)
    cache.get(spec())
    cache.get(spec(1))
    main(["cache", "stats", "--json", "--cache-dir", str(cache.root)])
    payload = json.loads(capsys.readouterr().out)
    assert sorted(payload) == [
        "by_kind", "entries", "hit_rate", "hits", "max_bytes", "misses",
        "put_failures", "root", "salt", "schema", "total_bytes",
    ]
    assert payload["schema"] == "repro.cache_stats/1"
    assert (payload["hits"], payload["misses"]) == (1, 1)
    assert payload["hit_rate"] == 0.5
    assert payload["put_failures"] == 0
    assert payload["by_kind"] == {"capture": 1}


def test_clean_miss_creates_and_unlinks_nothing(cache, monkeypatch):
    cache.put(spec(0), 1)
    assert cache.get(spec(1)) is None  # first lookup writes the counters
    before = sorted(p.relative_to(cache.root) for p in cache.root.rglob("*"))
    unlinked = []
    monkeypatch.setattr(os, "unlink", lambda p, *a, **k: unlinked.append(p))
    assert cache.get(spec(2)) is None
    after = sorted(p.relative_to(cache.root) for p in cache.root.rglob("*"))
    assert unlinked == []
    assert after == before
    assert cache.stats().misses == 2


def test_put_after_clear_on_the_same_handle(cache):
    cache.put(spec(), 1)
    assert cache.clear() == 1
    assert list((cache.root / "objects").iterdir()) == []  # shard gone
    cache.put(spec(), 2)
    assert cache.session_put_failures == 0
    assert cache.get(spec()) == 2


def test_leftover_two_file_entry_is_counted_and_evicted(tmp_path):
    """Files of the older ``.pkl`` + ``.json`` layout are never looked
    up, but stats count them, the cap evicts them, and nothing raises."""
    cache = RunCache(tmp_path / "store", max_bytes=3000)
    shard = cache.root / "objects" / "ab"
    shard.mkdir(parents=True)
    old = "ab" + "0" * 62
    pkl, meta = shard / f"{old}.pkl", shard / f"{old}.json"
    pkl.write_bytes(dumps_artifact(list(range(1000))))  # ~2.9 KB
    meta.write_text(json.dumps({"spec": {"kind": "capture"}}, indent=1))
    for path in (pkl, meta):
        os.utime(path, (100.0, 100.0))  # stale: evicted first
    stats = cache.stats()
    assert stats.entries == 1
    assert stats.total_bytes == pkl.stat().st_size + meta.stat().st_size
    assert stats.by_kind == {"?": 1}
    assert cache.verify(sample=3) == []  # old files are never read
    cache.put(spec(), {"payload": list(range(100))})
    assert not pkl.exists() and not meta.exists()
    assert cache.stats().entries == 1
    assert cache.get(spec()) == {"payload": list(range(100))}
