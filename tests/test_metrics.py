"""The metrics registry, its instrumentation sites, and the profiler.

The headline invariants:

* a detached registry costs nothing — simulation results are identical
  with and without one, and ``Core.step`` itself contains no metrics
  code at all (accounting happens once per ``run()``);
* the profiler's subsystem map partitions every frame, so subsystem
  times sum exactly to the profile's total.
"""

import inspect
import json

import pytest

from repro.bench import RunSpec, clear_caches, run_batch
from repro.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    Timer,
    attached,
    classify_module,
    flatten_snapshot,
    get_registry,
    profile_spec,
    report_from_stats,
    set_registry,
)
from repro.uarch import P_CORE, simulate
from repro.uarch.pipeline import Core
from repro.workloads import get_workload

FAST = RunSpec(workload="ossl.ecadd")


@pytest.fixture()
def isolated_cache(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_PROGRESS", "0")
    clear_caches()
    yield tmp_path / "cache"
    clear_caches()


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------

def test_counter_increments_and_rejects_decrease():
    registry = MetricsRegistry()
    counter = registry.counter("executor.specs")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    with pytest.raises(ValueError, match="cannot decrease"):
        counter.inc(-1)
    # create-on-first-use returns the same instance
    assert registry.counter("executor.specs") is counter


def test_gauge_last_write_wins():
    registry = MetricsRegistry()
    gauge = registry.gauge("fuzz.programs_per_sec")
    gauge.set(10)
    gauge.set(3.5)
    assert gauge.value == 3.5


def test_timer_aggregates_and_percentiles():
    timer = Timer("t", buckets=(0.01, 0.1, 1.0))
    for seconds in (0.005, 0.005, 0.05, 0.5):
        timer.observe(seconds)
    assert timer.count == 4
    assert timer.sum == pytest.approx(0.56)
    assert timer.min == 0.005
    assert timer.max == 0.5
    assert timer.mean == pytest.approx(0.14)
    # p50 rank lands in the first bucket (edge 0.01)
    assert timer.percentile(50) == 0.01
    # p100 is clamped to the observed max, not the bucket edge
    assert timer.percentile(100) == 0.5
    with pytest.raises(ValueError):
        timer.percentile(0)


def test_timer_infinity_bucket_and_context_manager():
    timer = Timer("t", buckets=(0.001,))
    timer.observe(5.0)  # beyond the last edge -> +Inf bucket
    assert timer.bucket_counts[-1] == 1
    with timer.time():
        pass
    assert timer.count == 2


def test_timer_rejects_unsorted_buckets():
    with pytest.raises(ValueError, match="strictly"):
        Timer("t", buckets=(1.0, 0.5))


def test_default_buckets_are_strictly_increasing():
    assert list(DEFAULT_BUCKETS) == sorted(set(DEFAULT_BUCKETS))


# ----------------------------------------------------------------------
# Export formats
# ----------------------------------------------------------------------

def _sample_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("executor.specs").inc(3)
    registry.gauge("uarch.sim_cycles_per_sec").set(1500.0)
    timer = registry.timer("executor.spec_seconds", buckets=(0.1, 1.0))
    timer.observe(0.05)
    timer.observe(0.5)
    return registry


def test_json_snapshot_shape():
    snapshot = json.loads(_sample_registry().to_json())
    assert snapshot["counters"] == {"executor.specs": 3}
    assert snapshot["gauges"] == {"uarch.sim_cycles_per_sec": 1500.0}
    timer = snapshot["timers"]["executor.spec_seconds"]
    assert timer["count"] == 2
    assert timer["sum"] == pytest.approx(0.55)
    assert timer["buckets"] == [[0.1, 1], [1.0, 1]]


def test_prometheus_export_golden():
    text = _sample_registry().to_prometheus()
    assert text == (
        "# HELP repro_executor_specs_total "
        "specs requested across all batches\n"
        "# TYPE repro_executor_specs_total counter\n"
        "repro_executor_specs_total 3\n"
        "# HELP repro_uarch_sim_cycles_per_sec "
        "fast-engine simulation throughput\n"
        "# TYPE repro_uarch_sim_cycles_per_sec gauge\n"
        "repro_uarch_sim_cycles_per_sec 1500\n"
        "# HELP repro_executor_spec_seconds "
        "worker-side simulation time per spec\n"
        "# TYPE repro_executor_spec_seconds histogram\n"
        'repro_executor_spec_seconds_bucket{le="0.1"} 1\n'
        'repro_executor_spec_seconds_bucket{le="1"} 2\n'
        'repro_executor_spec_seconds_bucket{le="+Inf"} 2\n'
        "repro_executor_spec_seconds_sum 0.55\n"
        "repro_executor_spec_seconds_count 2\n"
    )


def test_prometheus_help_omitted_for_unknown_metric():
    registry = MetricsRegistry()
    registry.counter("bespoke.unknown_counter").inc()
    text = registry.to_prometheus()
    assert "# HELP" not in text
    assert "# TYPE repro_bespoke_unknown_counter_total counter" in text


def test_empty_registry_prometheus_is_empty():
    assert MetricsRegistry().to_prometheus() == ""


def test_every_published_metric_has_help(isolated_cache):
    """HELP enforcement: walk a real bench + fuzz snapshot and fail on
    any metric the instrumentation publishes without a ``# HELP``
    description in ``METRIC_HELP``.  Per-worker fabric gauges are the
    one sanctioned dynamic family (``fabric.worker.<id>.*``)."""
    from repro.contracts import Contract
    from repro.fuzzing import CampaignConfig, run_campaign
    from repro.metrics.registry import METRIC_HELP

    registry = MetricsRegistry()
    with attached(registry):
        run_batch([FAST,
                   RunSpec(workload="ossl.ecadd", defense="track",
                           instrument="auto")], jobs=1)
        run_batch([FAST], jobs=1)  # a cache hit, for the hit counters
        config = CampaignConfig(defense_factory=None,
                                defense_name="unsafe",
                                contract=Contract.CT_SEQ, n_programs=1,
                                pairs_per_program=1, program_size=12)
        run_campaign(config, jobs=1)
    snapshot = registry.snapshot()
    names = (set(snapshot["counters"]) | set(snapshot["gauges"])
             | set(snapshot["timers"]))
    assert len(names) > 10  # the walk covered a real surface
    missing = sorted(
        name for name in names
        if name not in METRIC_HELP
        and not name.startswith("fabric.worker."))
    assert not missing, \
        f"metrics published without a # HELP description: {missing}"
    # And every described metric that fired carries its HELP line.
    text = registry.to_prometheus()
    for name in sorted(names & set(METRIC_HELP)):
        assert METRIC_HELP[name] in text, name


def test_flatten_snapshot_scalars():
    flat = flatten_snapshot(_sample_registry().snapshot())
    assert flat["executor.specs"] == 3.0
    assert flat["uarch.sim_cycles_per_sec"] == 1500.0
    assert flat["executor.spec_seconds.count"] == 2.0
    assert flat["executor.spec_seconds.sum"] == pytest.approx(0.55)
    assert flat["executor.spec_seconds.max"] == 0.5
    assert "executor.spec_seconds.buckets" not in flat


# ----------------------------------------------------------------------
# Attachment and the zero-overhead contract
# ----------------------------------------------------------------------

def test_attached_restores_previous_registry():
    assert get_registry() is None
    outer = MetricsRegistry()
    previous = set_registry(outer)
    assert previous is None
    with attached(MetricsRegistry()) as inner:
        assert get_registry() is inner
    assert get_registry() is outer
    set_registry(None)


def test_metrics_are_transparent_to_simulation():
    """Mirrors PR2's tracer-transparency test: attaching a registry
    must not perturb the simulation in any observable way."""
    w = get_workload("ossl.ecadd")
    from repro.defenses import SPTSB

    plain = simulate(w.program, SPTSB(), P_CORE, w.memory, w.regs)
    registry = MetricsRegistry()
    with attached(registry):
        measured = simulate(w.program, SPTSB(), P_CORE, w.memory, w.regs)
    assert plain.cycles == measured.cycles
    assert plain.stats == measured.stats
    assert registry.counter("uarch.sim_cycles").value == measured.cycles
    assert registry.counter("uarch.runs").value == 1
    assert registry.timer("uarch.run_seconds").count == 1


def test_core_step_has_no_metrics_code():
    """The acceptance criterion: the per-cycle hot path pays nothing.
    All metrics accounting lives in ``Core.run`` (once per simulation);
    ``step`` keeps exactly its one tracer None-check."""
    source = inspect.getsource(Core.step)
    assert "metrics" not in source
    assert source.count("is not None") == 1


# ----------------------------------------------------------------------
# Instrumentation sites
# ----------------------------------------------------------------------

def test_run_batch_publishes_counters(isolated_cache):
    registry = MetricsRegistry()
    with attached(registry):
        run_batch([FAST], jobs=1)
        run_batch([FAST], jobs=1)  # memory hit on the second pass
    counters = registry.snapshot()["counters"]
    assert counters["executor.batches"] == 2
    assert counters["executor.specs"] == 2
    assert counters["cache.misses"] == 1
    assert counters["cache.memory_hits"] == 1
    assert registry.timer("executor.batch_seconds").count == 2
    assert registry.timer("executor.spec_seconds").count == 1


def test_run_batch_parallel_records_queue_wait(isolated_cache):
    registry = MetricsRegistry()
    with attached(registry):
        run_batch([FAST, RunSpec(workload="ossl.ecadd",
                                 defense="spt-sb")], jobs=2)
    assert registry.timer("executor.spec_seconds").count == 2
    assert registry.timer("executor.queue_wait_seconds").count == 2
    assert registry.counter("cache.misses").value == 2


def test_campaign_publishes_throughput():
    from repro.fuzzing import CampaignConfig, run_campaign
    from repro.contracts import Contract

    registry = MetricsRegistry()
    config = CampaignConfig(defense_factory=None, defense_name="unsafe",
                            contract=Contract.CT_SEQ, n_programs=2,
                            pairs_per_program=2, program_size=12)
    with attached(registry):
        result = run_campaign(config, jobs=1)
    counters = registry.snapshot()["counters"]
    assert counters["fuzz.campaigns"] == 1
    assert counters["fuzz.programs"] == 2
    assert counters["fuzz.checks"] == result.tests + result.invalid_pairs
    assert registry.gauge("fuzz.checks_per_sec").value > 0


# ----------------------------------------------------------------------
# Profiler
# ----------------------------------------------------------------------

def test_classify_module_rules():
    assert classify_module("/x/src/repro/uarch/pipeline.py") == "pipeline"
    assert classify_module("/x/src/repro/uarch/caches.py") == "caches"
    assert classify_module("/x/src/repro/defenses/spt.py") == \
        "defense-hooks"
    assert classify_module("/usr/lib/python3/enum.py") == "host-runtime"
    assert classify_module("~") == "host-runtime"
    assert classify_module("/x/src/repro/newthing.py") == "repro-other"


def test_classify_module_compiled_kernels():
    assert classify_module("<repro-compiled:0123456789ab>") == \
        "compiled-pipeline"


def test_profile_attributes_compiled_kernel_frames(isolated_cache):
    import cProfile
    import pstats

    from repro.defenses import ProtTrack
    from repro.fixtures import build
    from repro.uarch import P_CORE, simulate

    program, memory = build("v1-gadget")
    profile = cProfile.Profile()
    profile.enable()
    result = simulate(program, ProtTrack(), P_CORE, memory,
                      engine="compiled")
    profile.disable()
    report = report_from_stats(pstats.Stats(profile), label="v1",
                               cycles=result.cycles)
    assert report.subsystems.get("compiled-pipeline", 0) > 0
    assert sum(report.subsystems.values()) == pytest.approx(
        report.total_s, rel=1e-9)
    compiled = [e for e in report.entries
                if e.subsystem == "compiled-pipeline"]
    assert any(e.function.endswith("(run)") for e in compiled)


def test_profile_subsystems_sum_to_total(isolated_cache):
    report = profile_spec(FAST)
    assert report.cycles > 0
    assert report.total_s > 0
    assert sum(report.subsystems.values()) == pytest.approx(
        report.total_s, rel=1e-9)
    assert "pipeline" in report.subsystems
    rendered = report.render(5)
    assert "host time by subsystem" in rendered
    assert "pipeline" in rendered


def test_profile_collapsed_stacks(isolated_cache, tmp_path):
    report = profile_spec(FAST)
    out = report.write_collapsed(tmp_path / "stacks.txt")
    lines = out.read_text().splitlines()
    assert lines
    for line in lines:
        frame, _, micros = line.rpartition(" ")
        assert ";" in frame
        assert int(micros) > 0


def test_report_from_stats_handles_builtins():
    import cProfile
    import pstats

    profile = cProfile.Profile()
    profile.enable()
    sorted(range(1000))
    profile.disable()
    report = report_from_stats(pstats.Stats(profile), label="x")
    assert report.entries
    assert all(e.subsystem == "host-runtime" for e in report.entries)


def test_profile_cli_smoke(isolated_cache, tmp_path, capsys):
    from repro.cli import main

    collapsed = tmp_path / "stacks.txt"
    assert main(["profile", "ossl.ecadd", "--top", "5",
                 "--collapsed", str(collapsed)]) == 0
    out = capsys.readouterr().out
    assert "host time by subsystem" in out
    assert collapsed.exists()
    assert main(["profile", "ossl.ecadd", "--defense", "nope"]) == 2
