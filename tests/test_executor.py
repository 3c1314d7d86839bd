"""The parallel batch executor and its persistent result cache."""

import os
import pathlib

import pytest

from repro.bench import (
    ExecutorError,
    RunSpec,
    RunSummary,
    baseline_norm,
    clear_caches,
    run,
    run_batch,
    run_summary,
)
from repro.bench import executor
from repro.bench import runner
from repro.bench.executor import (
    cache_load,
    clear_summary_cache,
    spec_cache_key,
    summarize,
)
from repro.contracts import Contract
from repro.defenses import Unsafe
from repro.fuzzing import CampaignConfig, run_campaign

FAST = RunSpec(workload="ossl.ecadd")
FAST_SPTSB = RunSpec(workload="ossl.ecadd", defense="spt-sb")


@pytest.fixture()
def isolated_cache(monkeypatch, tmp_path):
    """Point the persistent cache at a fresh directory."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_PROGRESS", "0")
    clear_caches()
    yield tmp_path / "cache"
    clear_caches()


# ----------------------------------------------------------------------
# RunSummary / keys
# ----------------------------------------------------------------------

def test_summary_round_trip():
    summary = RunSummary(cycles=100, instructions=40, halt_reason="halt",
                         stats=(("squashes", 3),))
    assert RunSummary.from_dict(summary.to_dict()) == summary
    assert summary.ipc == pytest.approx(0.4)
    assert summary.stat == {"squashes": 3}


def test_summarize_matches_full_result(isolated_cache):
    result = run(FAST)
    summary = summarize(result)
    assert summary.cycles == result.cycles
    assert summary.instructions == result.instructions
    assert summary.stat == result.stats


def test_cache_key_depends_on_spec_and_workload(isolated_cache):
    assert spec_cache_key(FAST) != spec_cache_key(FAST_SPTSB)
    assert spec_cache_key(FAST) != spec_cache_key(
        RunSpec(workload="ossl.dh"))
    assert spec_cache_key(FAST) == spec_cache_key(
        RunSpec(workload="ossl.ecadd"))


def test_cache_key_invalidates_on_version_change(isolated_cache,
                                                 monkeypatch):
    before = spec_cache_key(FAST)
    monkeypatch.setenv("REPRO_CACHE_SALT", "simulator-changed")
    assert spec_cache_key(FAST) != before


# ----------------------------------------------------------------------
# Cache hit/miss/invalidation through run_batch
# ----------------------------------------------------------------------

def test_batch_miss_then_memory_then_disk_hits(isolated_cache):
    specs = [FAST, FAST_SPTSB]
    first = run_batch(specs, jobs=1)
    assert executor.LAST_BATCH.simulated == 2
    assert executor.LAST_BATCH.hits == 0

    second = run_batch(specs, jobs=1)
    assert executor.LAST_BATCH.memory_hits == 2
    assert executor.LAST_BATCH.simulated == 0

    clear_summary_cache()
    third = run_batch(specs, jobs=1)
    assert executor.LAST_BATCH.disk_hits == 2
    assert executor.LAST_BATCH.simulated == 0
    assert first == second == third


def test_version_change_forces_resimulation(isolated_cache, monkeypatch):
    run_batch([FAST], jobs=1)
    assert executor.LAST_BATCH.simulated == 1
    monkeypatch.setenv("REPRO_CACHE_SALT", "new-simulator")
    clear_summary_cache()
    run_batch([FAST], jobs=1)
    assert executor.LAST_BATCH.simulated == 1  # old entry not reused


def test_no_cache_env_disables_persistence(isolated_cache, monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    run_summary(FAST)
    assert cache_load(FAST) is None
    if isolated_cache.exists():
        assert not list(isolated_cache.rglob("*.json"))


def test_run_summary_matches_batch(isolated_cache):
    assert run_summary(FAST) == run_batch([FAST], jobs=1)[FAST]


# ----------------------------------------------------------------------
# Parallel == serial
# ----------------------------------------------------------------------

def test_parallel_results_bit_identical_to_serial(isolated_cache,
                                                  monkeypatch, tmp_path):
    specs = [FAST, FAST_SPTSB,
             RunSpec(workload="ossl.dh"),
             RunSpec(workload="ossl.dh", defense="track",
                     instrument="unr")]
    serial = run_batch(specs, jobs=1)
    assert executor.LAST_BATCH.jobs == 1

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache2"))
    clear_caches()
    parallel = run_batch(specs, jobs=2)
    assert executor.LAST_BATCH.simulated == 4
    assert serial == parallel


def test_repro_jobs_env_sets_default(isolated_cache, monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert executor.resolve_jobs() == 3
    assert executor.resolve_jobs(1) == 1
    monkeypatch.delenv("REPRO_JOBS")
    assert executor.resolve_jobs() == (os.cpu_count() or 1)


# ----------------------------------------------------------------------
# Worker timeout / retry / crash paths (stub workers must be
# module-level so the pool can pickle them by reference)
# ----------------------------------------------------------------------

def _always_timeout_worker(spec, timeout_s):
    return ("timeout", spec, None)


def _always_error_worker(spec, timeout_s):
    return ("error", spec, "injected failure")


def _always_crash_worker(spec, timeout_s):
    os._exit(3)


def _marker(spec):
    return pathlib.Path(os.environ["REPRO_TEST_MARKER_DIR"]) \
        / spec.workload.replace("/", "_")


def _fail_once_worker(spec, timeout_s):
    marker = _marker(spec)
    if not marker.exists():
        marker.write_text("failed once")
        return ("error", spec, "injected transient failure")
    return executor._worker_run(spec, timeout_s)


def _crash_once_worker(spec, timeout_s):
    marker = _marker(spec)
    if not marker.exists():
        marker.write_text("crashed once")
        os._exit(3)
    return executor._worker_run(spec, timeout_s)


def test_worker_timeout_exhausts_retries(isolated_cache):
    with pytest.raises(ExecutorError, match="timed out|attempts"):
        run_batch([FAST, FAST_SPTSB], jobs=2, retries=1,
                  worker=_always_timeout_worker)


def test_worker_error_exhausts_retries(isolated_cache):
    with pytest.raises(ExecutorError, match="injected failure"):
        run_batch([FAST, FAST_SPTSB], jobs=2, retries=1,
                  worker=_always_error_worker)


def test_transient_failure_is_retried(isolated_cache, monkeypatch,
                                      tmp_path):
    markers = tmp_path / "markers"
    markers.mkdir()
    monkeypatch.setenv("REPRO_TEST_MARKER_DIR", str(markers))
    results = run_batch([FAST, FAST_SPTSB], jobs=2, retries=2,
                        worker=_fail_once_worker)
    assert executor.LAST_BATCH.retried >= 1
    assert results[FAST].halt_reason == "halt"
    assert results[FAST_SPTSB].cycles > results[FAST].cycles


def test_crashed_worker_is_requeued(isolated_cache, monkeypatch,
                                    tmp_path):
    markers = tmp_path / "markers"
    markers.mkdir()
    monkeypatch.setenv("REPRO_TEST_MARKER_DIR", str(markers))
    results = run_batch([FAST, FAST_SPTSB], jobs=2, retries=2,
                        worker=_crash_once_worker)
    assert results[FAST].halt_reason == "halt"
    assert len(results) == 2


def test_reliably_crashing_worker_gives_up(isolated_cache):
    with pytest.raises(ExecutorError, match="crashed"):
        run_batch([FAST, FAST_SPTSB], jobs=2, retries=1,
                  worker=_always_crash_worker)


def test_worker_run_reports_simulation_errors(isolated_cache):
    status, _, payload, sim_s = executor._worker_run(
        RunSpec(workload="no-such-workload"), None)
    assert status == "error"
    assert "no-such-workload" in payload
    assert sim_s >= 0


# ----------------------------------------------------------------------
# Campaign determinism under parallelism
# ----------------------------------------------------------------------

def test_campaign_parallel_matches_serial():
    config = CampaignConfig(defense_factory=Unsafe,
                            contract=Contract.UNPROT_SEQ,
                            instrumentation="rand",
                            n_programs=4, pairs_per_program=1, seed=7)
    serial = run_campaign(config, jobs=1)
    parallel = run_campaign(config, jobs=4)
    assert (serial.tests, serial.violations, serial.false_positives,
            serial.invalid_pairs, serial.violation_sites) == \
           (parallel.tests, parallel.violations, parallel.false_positives,
            parallel.invalid_pairs, parallel.violation_sites)


def test_campaign_defense_name_enables_lambda_parallelism():
    config = CampaignConfig(defense_factory=None,
                            contract=Contract.UNPROT_SEQ,
                            instrumentation="rand",
                            n_programs=2, pairs_per_program=1, seed=3,
                            defense_name="track-raw")
    result = run_campaign(config, jobs=2)
    assert result.tests == 2
    assert result.violations == 0


def test_unpicklable_factory_falls_back_to_serial():
    config = CampaignConfig(defense_factory=lambda: Unsafe(),
                            contract=Contract.UNPROT_SEQ,
                            instrumentation="rand",
                            n_programs=2, pairs_per_program=1, seed=3)
    result = run_campaign(config, jobs=2)
    assert result.tests == 2
    # The serial fallback must agree exactly with the same cell run in
    # parallel through its registry name.
    named = CampaignConfig(defense_factory=None,
                           contract=Contract.UNPROT_SEQ,
                           instrumentation="rand",
                           n_programs=2, pairs_per_program=1, seed=3,
                           defense_name="unsafe")
    parallel = run_campaign(named, jobs=2)
    assert (result.tests, result.violations, result.false_positives,
            result.invalid_pairs, result.violation_sites) == \
           (parallel.tests, parallel.violations, parallel.false_positives,
            parallel.invalid_pairs, parallel.violation_sites)


# ----------------------------------------------------------------------
# Satellite fixes in the legacy runner
# ----------------------------------------------------------------------

def test_baseline_norm_rejects_unknown_baseline(monkeypatch):
    class FakeWorkload:
        baseline = "definitely-not-a-defense"

    monkeypatch.setattr(runner, "get_workload", lambda name: FakeWorkload())
    with pytest.raises(ValueError, match="unknown baseline"):
        baseline_norm("whatever")


def test_baseline_norm_resolves_directly(isolated_cache):
    from repro.bench import norm_runtime

    assert baseline_norm("ossl.dh") == norm_runtime("ossl.dh", "spt-sb")


def test_full_result_cache_is_bounded(isolated_cache, monkeypatch):
    monkeypatch.setattr(runner, "_RUN_CACHE_LIMIT", 2)
    runner._run_cache.clear()
    run(RunSpec(workload="ossl.ecadd"))
    run(RunSpec(workload="ossl.dh"))
    newest = run(RunSpec(workload="ossl.bnexp"))
    assert len(runner._run_cache) == 2
    assert RunSpec(workload="ossl.ecadd") not in runner._run_cache
    # The most recent entry is still served by identity.
    assert run(RunSpec(workload="ossl.bnexp")) is newest


# ----------------------------------------------------------------------
# Cache-format versioning
# ----------------------------------------------------------------------

def test_from_dict_rejects_missing_or_stale_schema():
    summary = RunSummary(cycles=10, instructions=4, halt_reason="halt")
    payload = summary.to_dict()
    payload["schema"] = executor.CACHE_FORMAT - 1
    with pytest.raises(ValueError, match="stale RunSummary payload"):
        RunSummary.from_dict(payload)
    payload.pop("schema")
    with pytest.raises(ValueError, match="stale RunSummary payload"):
        RunSummary.from_dict(payload)


def test_cache_format_bump_invalidates_entries(isolated_cache,
                                               monkeypatch):
    run_batch([FAST], jobs=1)
    assert cache_load(FAST) is not None
    # A format bump changes the cache key: old entries are never even
    # looked up, and the spec re-simulates.
    monkeypatch.setattr(executor, "CACHE_FORMAT",
                        executor.CACHE_FORMAT + 1)
    clear_summary_cache()
    assert cache_load(FAST) is None
    run_batch([FAST], jobs=1)
    assert executor.LAST_BATCH.simulated == 1


def test_cache_load_rejects_stale_payload_at_current_key(isolated_cache):
    import json

    run_batch([FAST], jobs=1)
    path = executor._cache_path(spec_cache_key(FAST))
    payload = json.loads(path.read_text())
    # Old wrapper format at the current key (e.g. a hand-copied cache).
    payload["format"] = executor.CACHE_FORMAT - 1
    path.write_text(json.dumps(payload))
    assert cache_load(FAST) is None
    # Current wrapper, stale embedded summary: from_dict must refuse it
    # rather than silently deserializing an old schema.
    payload["format"] = executor.CACHE_FORMAT
    payload["summary"]["schema"] = executor.CACHE_FORMAT - 1
    path.write_text(json.dumps(payload))
    assert cache_load(FAST) is None


def test_serial_and_parallel_runsummary_json_byte_identical(
        isolated_cache, monkeypatch):
    """Determinism regression: with the persistent cache disabled and
    the fast path at its default (enabled), a serial batch and a
    --jobs 2 batch must produce byte-identical RunSummary JSON."""
    import json

    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    monkeypatch.delenv("REPRO_NO_FAST_PATH", raising=False)
    specs = [FAST, FAST_SPTSB,
             RunSpec(workload="ossl.dh", defense="track",
                     instrument="unr")]

    def batch_json(jobs):
        clear_caches()
        results = run_batch(specs, jobs=jobs)
        return json.dumps(
            [(repr(spec), results[spec].to_dict()) for spec in specs],
            sort_keys=True)

    serial = batch_json(1)
    parallel = batch_json(2)
    assert executor.LAST_BATCH.simulated == len(specs)  # cache was off
    assert serial == parallel
    assert serial.encode() == parallel.encode()


def test_runsummary_engine_independent(isolated_cache, monkeypatch):
    """The slim perf summary is identical whichever engine produced it
    (the RunSummary-level corollary of the differential harness)."""
    import json

    monkeypatch.setenv("REPRO_NO_CACHE", "1")

    def summary_json():
        clear_caches()
        clear_summary_cache()
        return json.dumps(run_summary(FAST_SPTSB).to_dict(),
                          sort_keys=True)

    monkeypatch.delenv("REPRO_NO_FAST_PATH", raising=False)
    with_fast = summary_json()
    monkeypatch.setenv("REPRO_NO_FAST_PATH", "1")
    without_fast = summary_json()
    assert with_fast == without_fast


def test_runsummary_repro_engine_env_independent(isolated_cache,
                                                 monkeypatch):
    """``REPRO_ENGINE`` picks the backend without changing results
    (that is what lets ``repro bench --engine`` reach pool workers)."""
    import json

    monkeypatch.setenv("REPRO_NO_CACHE", "1")

    def summary_json():
        clear_caches()
        clear_summary_cache()
        return json.dumps(run_summary(FAST_SPTSB).to_dict(),
                          sort_keys=True)

    by_engine = {}
    for engine in ("refcore", "fast", "compiled"):
        monkeypatch.setenv("REPRO_ENGINE", engine)
        by_engine[engine] = summary_json()
    assert by_engine["refcore"] == by_engine["fast"]
    assert by_engine["refcore"] == by_engine["compiled"]


# ----------------------------------------------------------------------
# Shared jobs resolver (warn-and-fallback at both call sites)
# ----------------------------------------------------------------------

def test_resolve_jobs_malformed_env_warns_and_falls_back(monkeypatch,
                                                         caplog):
    import logging

    monkeypatch.setenv("REPRO_JOBS", "four")
    with caplog.at_level(logging.WARNING, logger="repro.bench.executor"):
        jobs = executor.resolve_jobs()
    assert jobs == (os.cpu_count() or 1)
    assert any("REPRO_JOBS" in record.message
               for record in caplog.records)
    # An explicit argument bypasses the env entirely.
    assert executor.resolve_jobs(2) == 2


def test_campaign_resolver_delegates_to_executor(monkeypatch, caplog):
    """The campaign-side resolver and run_batch share one policy: the
    same malformed env warns (from the executor logger) in both."""
    import logging

    from repro.fuzzing.campaign import resolve_campaign_jobs

    monkeypatch.setenv("REPRO_JOBS", "four")
    with caplog.at_level(logging.WARNING, logger="repro.bench.executor"):
        assert resolve_campaign_jobs() == (os.cpu_count() or 1)
    assert any("REPRO_JOBS" in record.message
               for record in caplog.records)
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert resolve_campaign_jobs() == executor.resolve_jobs() == 3


# ----------------------------------------------------------------------
# Cache robustness (tmp-file leak, racing wipe)
# ----------------------------------------------------------------------

def test_cache_store_read_only_dir_does_not_leak_tmp(isolated_cache,
                                                     monkeypatch):
    """A failing os.replace must unlink its mkstemp file: a read-only
    or full cache volume must not accumulate orphan .tmp files."""
    summary = run_summary(FAST)
    key_dir = executor._cache_path(spec_cache_key(FAST)).parent

    def broken_replace(src, dst):
        raise OSError("injected replace failure")

    monkeypatch.setattr(executor.os, "replace", broken_replace)
    executor.cache_store(FAST_SPTSB, summary)  # must not raise
    assert not list(key_dir.parent.rglob("*.tmp"))


def test_cache_store_tolerates_unwritable_dir(isolated_cache,
                                              monkeypatch):
    run_summary(FAST)  # create the cache directory
    monkeypatch.setattr(executor.tempfile, "mkstemp",
                        lambda **kw: (_ for _ in ()).throw(
                            OSError("read-only file system")))
    summary = run_summary(FAST)
    executor.cache_store(FAST_SPTSB, summary)  # must not raise
    assert not list(isolated_cache.rglob("*.tmp"))


def test_cache_info_tolerates_concurrent_wipe(isolated_cache,
                                              monkeypatch):
    """Files deleted between the rglob walk and the stat (a racing
    wipe_cache or writer) are skipped, not crashed on."""
    run_batch([FAST, FAST_SPTSB], jobs=1)
    real_rglob = pathlib.Path.rglob

    def racing_rglob(self, pattern):
        paths = list(real_rglob(self, pattern))
        for path in paths:
            path.unlink()  # the concurrent wipe wins the race
            yield path

    monkeypatch.setattr(pathlib.Path, "rglob", racing_rglob)
    info = executor.cache_info()
    assert info["entries"] == 0
    assert info["bytes"] == 0


def test_cache_info_and_wipe_cover_compiled_kernels(isolated_cache):
    """``repro cache`` reports and clears the compiled-kernel artifacts
    (``compiled/*.py``) next to the result summaries."""
    run_batch([FAST], jobs=1)
    kernels = list((isolated_cache / "compiled").glob("*.py"))
    assert kernels, "the compiled engine persisted no artifact"
    info = executor.cache_info()
    assert info["entries"] == 1
    assert info["compiled"] == len(kernels)
    assert info["compiled_bytes"] == sum(p.stat().st_size for p in kernels)
    assert executor.wipe_cache() == 1 + len(kernels)
    assert not list((isolated_cache / "compiled").glob("*.py"))
    info = executor.cache_info()
    assert (info["entries"], info["compiled"]) == (0, 0)


def test_serial_batch_looks_up_each_pending_spec_once(isolated_cache,
                                                      monkeypatch):
    calls = []
    real_load = executor.cache_load

    def counting_load(spec):
        calls.append(spec)
        return real_load(spec)

    monkeypatch.setattr(executor, "cache_load", counting_load)
    run_batch([FAST, FAST_SPTSB], jobs=1)
    assert sorted(calls, key=repr) == sorted([FAST, FAST_SPTSB], key=repr)
    clear_summary_cache()
    calls.clear()
    run_batch([FAST, FAST_SPTSB], jobs=1)  # warm: one disk hit each
    assert len(calls) == 2


def test_wipe_cache_tolerates_vanished_files(isolated_cache,
                                             monkeypatch):
    run_batch([FAST], jobs=1)
    real_rglob = pathlib.Path.rglob

    def racing_rglob(self, pattern):
        paths = list(real_rglob(self, pattern))
        for path in paths:
            path.unlink()
            yield path

    monkeypatch.setattr(pathlib.Path, "rglob", racing_rglob)
    assert executor.wipe_cache() == 0  # nothing left to remove, no crash


# ----------------------------------------------------------------------
# Queue-wait accounting across a pool rebuild
# ----------------------------------------------------------------------

def _slow_crash_once_worker(spec, timeout_s):
    import time as _time

    marker = _marker(spec)
    if spec.defense == "unsafe" and not marker.exists():
        marker.write_text("crashing")
        _time.sleep(0.6)  # make the pre-crash epoch measurably old
        os._exit(3)
    return executor._worker_run(spec, timeout_s)


def test_queue_wait_restarts_after_pool_rebuild(isolated_cache,
                                                monkeypatch, tmp_path):
    """A spec resubmitted after a BrokenProcessPool rebuild gets a
    fresh submission stamp: its queue wait is measured from the
    rebuild, not from the doomed pool's epoch (which would be >= the
    0.6s the crashing worker slept)."""
    from repro.metrics import MetricsRegistry, attached

    markers = tmp_path / "markers"
    markers.mkdir()
    monkeypatch.setenv("REPRO_TEST_MARKER_DIR", str(markers))
    registry = MetricsRegistry()
    with attached(registry):
        results = run_batch([FAST, FAST_SPTSB], jobs=2, retries=2,
                            worker=_slow_crash_once_worker)
    assert len(results) == 2
    waited = registry.timer("executor.queue_wait_seconds")
    assert waited.count >= 1
    assert waited.max < 0.5


# ----------------------------------------------------------------------
# Spool wire format helpers
# ----------------------------------------------------------------------

def test_spec_payload_round_trip():
    from repro.bench.executor import spec_from_payload, spec_to_payload

    assert spec_from_payload(spec_to_payload(FAST_SPTSB)) == FAST_SPTSB


def test_spec_from_payload_rejects_unknown_fields():
    from repro.bench.executor import spec_from_payload, spec_to_payload

    payload = spec_to_payload(FAST)
    payload["not_a_field"] = 1
    with pytest.raises(ValueError, match="unknown RunSpec fields"):
        spec_from_payload(payload)


def test_canonical_json_is_byte_stable():
    from repro.bench.executor import canonical_json

    a = canonical_json({"b": 1, "a": [1, 2]})
    b = canonical_json({"a": [1, 2], "b": 1})
    assert a == b == '{"a":[1,2],"b":1}'


def test_batch_stats_count_compile_cache_traffic(isolated_cache):
    """A cold serial batch compiles its triples once; a warm batch
    reuses them (counters are parent-process registry deltas, so the
    serial path is the one that must account them)."""
    from repro.metrics import MetricsRegistry, attached

    registry = MetricsRegistry()
    with attached(registry):
        run_batch([FAST, FAST_SPTSB], jobs=1)
        cold = executor.LAST_BATCH
        clear_summary_cache()  # forget summaries, keep compiled code
        run_batch([FAST, FAST_SPTSB], jobs=1)
        warm = executor.LAST_BATCH
    assert cold.simulated == 2
    assert cold.compile_misses == 2
    assert cold.compile_hits == 0
    assert "compile cache 0/2 hit" in cold.line()
    # The second batch loads summaries from disk and never simulates,
    # so it sees no compile traffic at all.
    assert warm.simulated == 0 or warm.compile_hits == warm.simulated
    assert warm.compile_misses == 0
