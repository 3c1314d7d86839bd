"""The compiled simulation backend: engine selection, artifact-cache
invalidation, fallback behaviour, and metrics.

Cycle-identity of the compiled engine against the reference
interpreter is proven by the three-way differential harness
(``tests/test_equivalence.py`` runs a grid subset; ``repro diff`` and
the CI ``diff-threeway`` job run the full sweep).  This module covers
everything *around* that proof: that the content-addressed compile
cache misses exactly when it must, that auto-selection and the
documented fallbacks pick the right engine, and that the backend
reports its compile costs.
"""

import pytest

from repro.bench.runner import DEFENSES
from repro.defenses import ProtDelay, ProtTrack, Unsafe
from repro.fixtures import build
from repro.metrics import MetricsRegistry, attached
from repro.uarch import P_CORE, simulate
from repro.uarch.compiled import (
    ARTIFACT_END,
    CompiledCore,
    CompileUnsupported,
    clear_compile_cache,
    compile_key,
    compile_step,
    generate_source,
)
from repro.uarch.pipeline import ENGINES
from repro.uarch.refcore import parse_engines, run_engines
from repro.uarch.trace import PipelineTracer


@pytest.fixture()
def v1_program():
    return build("v1-gadget")[0]


@pytest.fixture(autouse=True)
def _fresh_compile_cache(tmp_path, monkeypatch):
    """Isolate every test from the repo's persistent artifact cache."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    clear_compile_cache()
    yield
    clear_compile_cache()


# ---------------------------------------------------------------------
# Cache-key invalidation: anything behavioural must miss.
# ---------------------------------------------------------------------

def test_compile_key_stable_for_equal_triples(v1_program):
    key_a = compile_key(v1_program, P_CORE, ProtTrack())
    key_b = compile_key(v1_program, P_CORE, ProtTrack())
    assert key_a == key_b


def test_compile_key_misses_on_simulator_source_change(
        v1_program, monkeypatch):
    before = compile_key(v1_program, P_CORE, Unsafe())
    monkeypatch.setenv("REPRO_CACHE_SALT", "edited-pipeline.py")
    after = compile_key(v1_program, P_CORE, Unsafe())
    assert before != after


def test_compile_key_misses_on_defense_param_change(v1_program):
    keys = {
        compile_key(v1_program, P_CORE, ProtTrack()),
        compile_key(v1_program, P_CORE, ProtTrack(predictor_entries=64)),
        compile_key(v1_program, P_CORE, ProtTrack(use_predictor=False)),
        compile_key(v1_program, P_CORE, ProtDelay()),
        compile_key(v1_program, P_CORE, ProtDelay(selective_wakeup=False)),
    }
    assert len(keys) == 5, "behavioural defense params must not share keys"


def test_compile_key_misses_on_core_config_change(v1_program):
    keys = {
        compile_key(v1_program, P_CORE, Unsafe()),
        compile_key(v1_program, P_CORE.replace(rob_size=24), Unsafe()),
        compile_key(v1_program, P_CORE.replace(width=2), Unsafe()),
        compile_key(v1_program, P_CORE.replace(buggy_squash_notify=True),
                    Unsafe()),
    }
    assert len(keys) == 4, "core-config fields must not share keys"


def test_compile_key_misses_on_program_change(v1_program):
    other = build("div-channel")[0]
    assert compile_key(v1_program, P_CORE, Unsafe()) \
        != compile_key(other, P_CORE, Unsafe())


# ---------------------------------------------------------------------
# compile_step: memory cache, disk artifacts, counters.
# ---------------------------------------------------------------------

def test_compile_step_cache_traffic(v1_program, tmp_path):
    registry = MetricsRegistry()
    with attached(registry):
        first = compile_step(v1_program, P_CORE, ProtTrack())
        second = compile_step(v1_program, P_CORE, ProtTrack())
        # Drop only the in-process cache: the next call must reload the
        # on-disk artifact instead of regenerating the source.
        clear_compile_cache()
        third = compile_step(v1_program, P_CORE, ProtTrack())
    counters = registry.snapshot()["counters"]
    assert counters["uarch.compile_cache_misses"] == 1
    assert counters["uarch.compile_cache_hits"] == 1
    assert counters["uarch.compile_cache_disk_hits"] == 1
    assert first is second  # memory hit returns the same function
    assert callable(third)
    key = compile_key(v1_program, P_CORE, ProtTrack())
    artifact = tmp_path / "cache" / "compiled" / f"{key}.py"
    assert artifact.is_file(), "miss must persist the generated source"
    assert "def run(core, lockstep=False):" in artifact.read_text()


@pytest.mark.parametrize("damage", ["truncated", "unmarked", "garbage"])
def test_damaged_disk_artifact_heals(v1_program, tmp_path, damage):
    """An artifact cut short on its way to disk (or otherwise damaged)
    is a miss: regenerated, overwritten, and the run still works."""
    key = compile_key(v1_program, P_CORE, ProtTrack())
    compile_step(v1_program, P_CORE, ProtTrack())
    artifact = tmp_path / "cache" / "compiled" / f"{key}.py"
    good = artifact.read_text()
    assert good.endswith(ARTIFACT_END)
    if damage == "truncated":
        # Cut mid-statement: the classic interrupted-writer shape.
        bad = good[:len(good) // 2].rsplit("(", 1)[0] + "(\n"
    elif damage == "unmarked":
        # Still valid Python, but the end marker never made it.
        bad = good[:-len(ARTIFACT_END)]
    else:
        bad = "\x00\x01 not python"
    artifact.write_text(bad)
    clear_compile_cache()
    registry = MetricsRegistry()
    with attached(registry):
        fn = compile_step(v1_program, P_CORE, ProtTrack())
    counters = registry.snapshot()["counters"]
    assert counters["uarch.compile_cache_misses"] == 1
    assert "uarch.compile_cache_disk_hits" not in counters
    assert artifact.read_text() == good, "the damaged file is overwritten"
    assert callable(fn)
    program, memory = build("v1-gadget")
    healed = simulate(program, ProtTrack(), P_CORE, memory,
                      engine="compiled")
    assert healed.halt_reason == "halt"


def test_compile_timer_observed(v1_program):
    registry = MetricsRegistry()
    with attached(registry):
        compile_step(v1_program, P_CORE, Unsafe())
    timers = registry.snapshot()["timers"]
    assert timers["uarch.compile_seconds"]["count"] == 1


# ---------------------------------------------------------------------
# Engine selection and fallbacks.
# ---------------------------------------------------------------------

def _compiled_runs(registry) -> int:
    return registry.snapshot()["counters"].get("uarch.compiled_runs", 0)


def test_auto_engine_picks_compiled():
    program, memory = build("v1-gadget")
    registry = MetricsRegistry()
    with attached(registry):
        result = simulate(program, ProtTrack(), P_CORE, memory)
    assert result.halt_reason == "halt"
    assert _compiled_runs(registry) == 1


def test_tracer_pins_the_interpreter():
    program, memory = build("v1-gadget")
    registry = MetricsRegistry()
    tracer = PipelineTracer()
    with attached(registry):
        traced = simulate(program, ProtTrack(), P_CORE, memory,
                          tracer=tracer)
    assert _compiled_runs(registry) == 0
    assert tracer.uops, "the tracer must actually have recorded events"
    assert traced.halt_reason == "halt"


def test_no_compile_env_pins_the_interpreter(monkeypatch):
    program, memory = build("v1-gadget")
    monkeypatch.setenv("REPRO_NO_COMPILE", "1")
    registry = MetricsRegistry()
    with attached(registry):
        simulate(program, ProtTrack(), P_CORE, memory)
    assert _compiled_runs(registry) == 0


def test_repro_engine_env_selects_the_simulate_engine(monkeypatch):
    """``simulate(engine=None)`` reads ``REPRO_ENGINE`` itself, so every
    caller (fuzzing, explain, speculation) follows the one knob; an
    explicit ``engine`` or ``fast_path`` argument still wins."""
    def run(**kwargs):
        program, memory = build("v1-gadget")
        registry = MetricsRegistry()
        with attached(registry):
            result = simulate(program, ProtTrack(), P_CORE, memory,
                              **kwargs)
        counters = registry.snapshot()["counters"]
        return (result.cycles, counters.get("uarch.compiled_runs", 0),
                counters.get("uarch.fast_forward_jumps", 0))

    monkeypatch.setenv("REPRO_ENGINE", "compiled")
    compiled = run()
    monkeypatch.setenv("REPRO_ENGINE", "fast")
    fast = run()
    monkeypatch.setenv("REPRO_ENGINE", "refcore")
    ref = run()
    assert compiled[1] == 1 and fast[1] == ref[1] == 0
    assert fast[2] > 0 and ref[2] == 0  # only the fast path jumps
    assert compiled[0] == fast[0] == ref[0]
    assert run(engine="compiled")[1] == 1
    monkeypatch.setenv("REPRO_ENGINE", "compiled")
    assert run(fast_path=False)[1:] == (0, 0)
    monkeypatch.setenv("REPRO_ENGINE", "warp")
    with pytest.raises(ValueError):
        run()


def test_explicit_compiled_engine_with_tracer_falls_back():
    program, memory = build("v1-gadget")
    tracer = PipelineTracer()
    fallback = simulate(program, ProtTrack(), P_CORE, memory,
                        tracer=tracer, engine="compiled")
    reference = simulate(program, ProtTrack(), P_CORE,
                         build("v1-gadget")[1], engine="refcore")
    assert fallback.cycles == reference.cycles
    assert fallback.stats == reference.stats


def test_compiled_core_rejects_tracer():
    program, memory = build("v1-gadget")
    with pytest.raises(CompileUnsupported):
        CompiledCore(program, ProtTrack(), P_CORE, memory,
                     tracer=PipelineTracer())


def test_unknown_engine_rejected(v1_program):
    with pytest.raises(ValueError):
        simulate(v1_program, Unsafe(), P_CORE, engine="hyperspeed")


def test_engines_constant_covers_cli_choices():
    assert set(ENGINES) == {"auto", "ref", "refcore", "fast", "compiled"}


def test_parse_engines():
    assert parse_engines("refcore,compiled") == ("refcore", "compiled")
    with pytest.raises(ValueError):
        parse_engines("refcore,warp")
    with pytest.raises(ValueError):
        parse_engines("compiled")  # a single non-reference engine


def test_compiled_cycles_per_sec_counter_ratio():
    """Throughput is a ratio of counters over every run, never a gauge
    the last run overwrites: two compiled runs and one interpreted run
    all land in ``uarch.sim_cycles`` / ``uarch.run_seconds``, and only
    the compiled ones in ``uarch.compiled_cycles`` /
    ``uarch.compiled_run_seconds``."""
    def cycles(name, engine):
        program, memory = build(name)
        return simulate(program, Unsafe(), P_CORE, memory,
                        engine=engine).cycles

    registry = MetricsRegistry()
    with attached(registry):
        compiled = [cycles(name, "compiled")
                    for name in ("v1-gadget", "div-channel")]
        interp = cycles("v1-gadget", "fast")
    snapshot = registry.snapshot()
    counters, timers = snapshot["counters"], snapshot["timers"]
    assert not [name for name in snapshot["gauges"] if "per_sec" in name]
    assert counters["uarch.compiled_cycles"] == sum(compiled)
    assert counters["uarch.sim_cycles"] == sum(compiled) + interp
    assert timers["uarch.compiled_run_seconds"]["count"] == 2
    assert timers["uarch.run_seconds"]["count"] == 3
    compiled_s = timers["uarch.compiled_run_seconds"]["sum"]
    total_s = timers["uarch.run_seconds"]["sum"]
    assert 0 < compiled_s < total_s
    assert counters["uarch.compiled_cycles"] / compiled_s > 0


# ---------------------------------------------------------------------
# Three-way equivalence smoke (the full sweep lives in `repro diff`).
# ---------------------------------------------------------------------

@pytest.mark.parametrize("defense", ["unsafe", "track", "delay", "stt"])
def test_threeway_fixture_equivalence(defense):
    program, _ = build("v1-gadget")
    _, report = run_engines(
        program, DEFENSES[defense],
        memory_factory=lambda: build("v1-gadget")[1],
        label=f"v1-gadget/{defense}")
    assert report.identical, report.render()


def test_generated_source_is_deterministic(v1_program):
    first = generate_source(v1_program, P_CORE, ProtTrack())
    second = generate_source(v1_program, P_CORE, ProtTrack())
    assert first == second
