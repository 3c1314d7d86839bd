"""Multi-core simulation (paper SVIII-A4): shared memory + L3, private
L1/L2 with write-invalidation, hybrid P/E scheduling.

Every property is checked on each engine: the stepped reference and
fast-path interpreter cores, and the compiled kernels driven in
lockstep.  The tests loop over :data:`ENGINES` instead of taking it as
a parameter, so each property keeps one test id."""

import itertools

import pytest

from repro.arch import run_program
from repro.arch.executor import STACK_TOP
from repro.defenses import Defense, ProtTrack, SPTSB, Unsafe
from repro.metrics import MetricsRegistry, attached
from repro.uarch import MultiCore, TID_REG, simulate_mt
from repro.uarch.multicore import STACK_STRIDE
from repro.workloads import get_workload

MT_NAMES = ("blackscholes.mt", "swaptions.mt", "canneal.mt")

#: The engines every multi-core property must hold on.
ENGINES = ("refcore", "fast", "compiled")


@pytest.mark.parametrize("name", MT_NAMES)
def test_all_threads_halt(name):
    w = get_workload(name)
    for engine in ENGINES:
        result = simulate_mt(w.program, Unsafe, w.memory, threads=4,
                             p_cores=2, engine=engine)
        assert result.halt_reasons == ["halt"] * 4, engine
        assert result.cycles == max(result.per_thread_cycles)


@pytest.mark.parametrize("name", MT_NAMES)
def test_threads_match_sequential_shards(name):
    # Shards are disjoint: each thread's committed work must equal its
    # own single-thread sequential run.
    w = get_workload(name)
    seqs = [run_program(w.program, w.memory,
                        {TID_REG: tid, 15: STACK_TOP + tid * STACK_STRIDE})
            for tid in range(4)]
    for engine in ENGINES:
        mc = MultiCore(w.program, Unsafe, w.memory, threads=4, p_cores=2,
                       engine=engine)
        mc.run()
        for tid, (core, seq) in enumerate(zip(mc.cores, seqs)):
            hw = core._result()
            assert hw.final_regs == seq.final_regs, (name, engine, tid)
            assert hw.committed_pcs == [s.pc for s in seq.steps]


def test_false_sharing_generates_invalidations():
    w = get_workload("blackscholes.mt")
    counts = {simulate_mt(w.program, Unsafe, w.memory, threads=4,
                          p_cores=2, engine=engine).invalidations
              for engine in ENGINES}
    assert len(counts) == 1 and counts.pop() > 0


def test_single_thread_has_no_invalidations():
    w = get_workload("blackscholes.mt")
    for engine in ENGINES:
        result = simulate_mt(w.program, Unsafe, w.memory, threads=1,
                             engine=engine)
        assert result.invalidations == 0, engine


def test_hybrid_scheduling_p_cores_faster():
    w = get_workload("swaptions.mt")
    for engine in ENGINES:
        result = simulate_mt(w.program, Unsafe, w.memory, threads=4,
                             p_cores=2, engine=engine)
        p_time = max(result.per_thread_cycles[:2])
        e_time = max(result.per_thread_cycles[2:])
        assert p_time <= e_time, engine


def test_defenses_order_preserved_mt():
    w = get_workload("blackscholes.mt")
    for engine in ENGINES:
        base, track, sptsb = (
            simulate_mt(w.program, factory, w.memory, threads=4,
                        p_cores=2, engine=engine).cycles
            for factory in (Unsafe, ProtTrack, SPTSB))
        assert base <= track <= sptsb, engine


def test_shared_l3_is_shared():
    w = get_workload("canneal.mt")
    for engine in ENGINES:
        mc = MultiCore(w.program, Unsafe, w.memory, threads=2, p_cores=2,
                       engine=engine)
        mc.run()
        assert mc.cores[0].caches.l3 is mc.cores[1].caches.l3


def test_thread_count_validation():
    w = get_workload("canneal.mt")
    with pytest.raises(ValueError):
        MultiCore(w.program, Unsafe, w.memory, threads=0)


# ----------------------------------------------------------------------
# Speculation-observatory telemetry on the multi-core substrate
# ----------------------------------------------------------------------

def test_per_core_telemetry_is_isolated():
    # Each core owns its stats dict and defense instance: telemetry
    # from one thread must never bleed into a sibling's counters.
    w = get_workload("blackscholes.mt")
    for engine in ENGINES:
        mc = MultiCore(w.program, ProtTrack, w.memory, threads=4,
                       p_cores=2, engine=engine)
        mc.run()
        assert len({id(core.stats) for core in mc.cores}) == 4
        assert len({id(core.defense) for core in mc.cores}) == 4
        results = [core._result() for core in mc.cores]
        for result in results:
            stats = result.stats
            assert stats["fetched_uops"] >= stats["committed_uops"] > 0
            assert stats["issued_uops"] >= stats["committed_uops"]
            # _result is idempotent: private accounting keys never
            # escape.
            assert not [k for k in stats if k.startswith("_")]
        # Shards differ, so per-core transient behaviour may too; at
        # minimum the totals are per-core, not one shared accumulator.
        total = sum(r.stats["fetched_uops"] for r in results)
        assert all(r.stats["fetched_uops"] < total for r in results)


def test_per_core_interventions_stay_per_defense_instance():
    w = get_workload("blackscholes.mt")
    for engine in ENGINES:
        mc = MultiCore(w.program, ProtTrack, w.memory, threads=2,
                       p_cores=2, engine=engine)
        mc.run()
        results = [core._result() for core in mc.cores]
        for result in results:
            stats = result.stats
            assert stats["defense_exec_interventions"] >= 0
            # Every episode spans at least one cycle.
            assert stats["defense_exec_delay_cycles"] >= \
                stats["defense_exec_interventions"]
        # The cores run the same program on disjoint shards under
        # separate defense instances; each one's episode counters
        # reconcile with its own refusal counters, not a pooled total.
        for result in results:
            assert result.stats["defense_delayed_transmitters"] >= \
                result.stats["defense_exec_interventions"]


def test_shared_l3_counters_are_shared_while_l1d_is_private():
    w = get_workload("canneal.mt")
    for engine in ENGINES:
        mc = MultiCore(w.program, Unsafe, w.memory, threads=2, p_cores=2,
                       engine=engine)
        mc.run()
        results = [core._result() for core in mc.cores]
        # One shared L3: every per-core export reports the same (global)
        # L3 counters...
        assert results[0].stats["l3_hits"] == results[1].stats["l3_hits"]
        assert results[0].stats["l3_misses"] == \
            results[1].stats["l3_misses"]
        # ...backed by the same object, while the private L1Ds diverge.
        assert mc.cores[0].caches.l3 is mc.cores[1].caches.l3
        assert mc.cores[0].caches.l1d is not mc.cores[1].caches.l1d
        l1d = [(r.stats["l1d_hits"], r.stats["l1d_misses"])
               for r in results]
        assert all(hits + misses > 0 for hits, misses in l1d)


def test_invalidations_counted_on_multicore_result():
    w = get_workload("blackscholes.mt")
    for engine in ENGINES:
        result = simulate_mt(w.program, ProtTrack, w.memory, threads=4,
                             p_cores=2, engine=engine)
        assert result.invalidations >= 0
        assert result.threads == 4


# ----------------------------------------------------------------------
# Engines: the compiled lockstep driver, the no-progress abort, the
# engine knob and the metrics every driver publishes
# ----------------------------------------------------------------------

class WedgeDefense(Defense):
    """Refuses every load forever: wedges its core at the first load
    that reaches the ROB head."""

    name = "Wedge"

    def may_execute(self, uop):
        return not uop.is_load


def _wedge_thread_one():
    """A defense factory whose every fourth instance, thread 1's in a
    4-thread run, is a :class:`WedgeDefense`."""
    calls = itertools.count()
    return lambda: WedgeDefense() if next(calls) % 4 == 1 else Unsafe()


def test_compiled_driver_runs_kernels():
    w = get_workload("swaptions.mt")
    registry = MetricsRegistry()
    with attached(registry):
        mc = MultiCore(w.program, ProtTrack, w.memory, threads=4,
                       p_cores=2, engine="compiled")
        result = mc.run()
    counters = registry.snapshot()["counters"]
    assert mc.compiled
    # One kernel lookup per core; threads 1 and 3 reuse in-process the
    # kernels threads 0 and 2 (one per core config) just looked up.
    lookups = sum(counters.get(f"uarch.compile_cache_{kind}", 0)
                  for kind in ("hits", "disk_hits", "misses"))
    assert lookups == 4
    assert counters.get("uarch.compile_cache_hits", 0) >= 2
    assert counters["uarch.compiled_runs"] == 4
    assert counters["uarch.compiled_cycles"] == sum(
        result.per_thread_cycles)


def test_no_progress_limit_stops_only_the_wedged_thread():
    w = get_workload("blackscholes.mt")
    outcomes = []
    for engine in ENGINES:
        mc = MultiCore(w.program, _wedge_thread_one(), w.memory,
                       threads=4, p_cores=2, engine=engine,
                       no_progress_limit=250)
        result = mc.run()
        assert result.halt_reasons == ["halt", "no_progress", "halt",
                                       "halt"], engine
        wedged = mc.cores[1]
        assert wedged.cycle == wedged._last_commit_cycle + 250
        # The other threads ran on past the wedged one's stop.
        assert min(result.per_thread_cycles[i] for i in (0, 2, 3)) \
            > result.per_thread_cycles[1]
        outcomes.append((result.per_thread_cycles, result.invalidations,
                         [core._result().stats for core in mc.cores]))
    assert all(outcome == outcomes[0] for outcome in outcomes)


def test_multicore_metrics_count_every_thread():
    """Multi-core cycles reach the same counters single-core runs feed:
    each thread is one run with its share of the wall time, and only
    the compiled driver counts compiled runs."""
    w = get_workload("canneal.mt")
    for engine in ENGINES:
        registry = MetricsRegistry()
        with attached(registry):
            result = simulate_mt(w.program, Unsafe, w.memory, threads=2,
                                 p_cores=1, engine=engine)
        snapshot = registry.snapshot()
        counters = snapshot["counters"]
        assert counters["uarch.sim_cycles"] == sum(result.per_thread_cycles)
        assert counters["uarch.runs"] == 2
        assert counters.get("uarch.compiled_runs", 0) == \
            (2 if engine == "compiled" else 0)
        seconds = snapshot["timers"]["uarch.run_seconds"]
        assert seconds["count"] == 2 and seconds["sum"] > 0


def test_repro_engine_selects_the_multicore_engine(monkeypatch):
    w = get_workload("canneal.mt")
    results = {}
    for engine in ENGINES:
        monkeypatch.setenv("REPRO_ENGINE", engine)
        mc = MultiCore(w.program, Unsafe, w.memory, threads=2, p_cores=1)
        assert mc.compiled == (engine == "compiled")
        assert mc.cores[0]._fast == (engine != "refcore")
        results[engine] = mc.run().per_thread_cycles
    assert len({tuple(cycles) for cycles in results.values()}) == 1
    # An explicit argument beats the environment.
    monkeypatch.setenv("REPRO_ENGINE", "refcore")
    assert MultiCore(w.program, Unsafe, w.memory, threads=1,
                     engine="compiled").compiled
    monkeypatch.setenv("REPRO_ENGINE", "warp")
    with pytest.raises(ValueError):
        MultiCore(w.program, Unsafe, w.memory, threads=1)


def test_no_compile_env_pins_the_stepped_driver(monkeypatch):
    w = get_workload("canneal.mt")
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    monkeypatch.setenv("REPRO_NO_COMPILE", "1")
    assert not MultiCore(w.program, Unsafe, w.memory, threads=1).compiled
    monkeypatch.delenv("REPRO_NO_COMPILE")
    assert MultiCore(w.program, Unsafe, w.memory, threads=1).compiled


def test_compiled_engine_falls_back_for_refused_shapes():
    """A program the kernel generator refuses (an empty one) runs on
    stepped interpreter cores instead, like ``simulate`` falls back."""
    from repro.isa.program import Program

    mc = MultiCore(Program([]), Unsafe, threads=2, engine="compiled",
                   no_progress_limit=50)
    assert not mc.compiled
    assert mc.run().halt_reasons == ["no_progress", "no_progress"]
