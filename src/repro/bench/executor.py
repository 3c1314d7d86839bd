"""Parallel simulation executor with a persistent on-disk result cache.

Every paper table and figure walks a workload x defense x knob matrix of
*independent*, pure-CPU simulations — exactly the embarrassingly
parallel shape AMuLeT exploits to scale countermeasure testing.  This
module provides the two pieces that make the whole evaluation grid scale
with cores instead of wall-clock:

* a **batch API** (:func:`run_batch`): callers declare their full
  :class:`~repro.bench.runner.RunSpec` matrix up front and the executor
  fans the specs out over a :class:`concurrent.futures.ProcessPoolExecutor`
  with per-spec timeouts, crashed-worker retry/requeue, and a progress
  line;

* a **persistent content-addressed cache** under ``benchmarks/.cache/``
  keyed by the spec plus a version hash of the workload program and the
  simulator-relevant source, storing a slim :class:`RunSummary` (cycles,
  instruction count, defense stats — not the full ``Memory`` image or
  ``timing_trace``) so repeated runs and cross-process workers reuse
  results.

Environment knobs:

* ``REPRO_JOBS`` — default worker count (``--jobs`` overrides; falls
  back to ``os.cpu_count()``).
* ``REPRO_NO_CACHE=1`` — disable the on-disk cache entirely.
* ``REPRO_CACHE_DIR`` — override the cache directory.
* ``REPRO_CACHE_SALT`` — extra content mixed into the version hash
  (used by tests to force invalidation).
* ``REPRO_PROGRESS`` — force the progress line on (``1``) or off
  (``0``); default: only when stderr is a tty.

Parallel output is bit-identical to serial output: a simulation is a
pure function of its spec, and results are keyed (not ordered) by spec.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import logging
import os
import pathlib
import signal
import sys
import tempfile
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..isa.program import Program
from ..metrics.registry import get_registry
from ..metrics.spans import (
    SpanRecorder,
    get_recorder,
    set_recorder,
    span_attrs_for_spec,
)
from ..uarch.pipeline import CoreResult
from ..workloads import get_workload
from .runner import RunSpec, execute_spec

logger = logging.getLogger(__name__)

#: Bumped whenever the cache entry layout changes.  Feeds both the
#: cache *key* (old-format entries are never even looked up) and the
#: ``schema`` field embedded in every payload, which ``RunSummary.
#: from_dict`` checks so a stale payload can never deserialize silently.
#: 2: complete cache/TLB/stall-cause stats schema; step() accounts the
#:    halting cycle (cycle counts shift by one).
#: 3: speculation-observatory schema — transient-uop accounting
#:    (issued_uops, per-cause squash counters), speculation-depth and
#:    squash-cascade histograms, per-hook defense intervention
#:    episode counters; the "defense" stall alias became
#:    "defense_execute".
#: 4: ``RunSpec.mitigation`` (software mitigation passes) joins the
#:    spec cache key; entries written before the field existed would
#:    collide with ``mitigation=None`` under the old asdict payload.
CACHE_FORMAT = 4

#: Default per-spec wall-clock budget (seconds).  Simulations carry a
#: cycle-count safety valve already, so this only catches pathological
#: hangs (infinite loops in new defense code, a wedged worker, ...).
DEFAULT_TIMEOUT_S = 600.0

#: How many times a spec is re-queued after a worker timeout or crash
#: before the batch gives up.
DEFAULT_RETRIES = 2

#: Source packages whose content feeds the version hash.  Editing any
#: of these invalidates every cached result; workload *programs* are
#: hashed separately (per workload) so a new kernel only invalidates
#: itself.
_VERSIONED_PACKAGES = ("arch", "uarch", "isa", "defenses", "protcc",
                       "protisa")


class ExecutorError(RuntimeError):
    """A spec exhausted its retries (worker crash or timeout)."""


@dataclass(frozen=True)
class RunSummary:
    """The slim, picklable outcome of one simulation.

    This is what the persistent cache stores and what the perf paths
    (``norm_runtime``, tables, figures, ablations) consume: cycles,
    instruction count, and the defense/pipeline stats counters — never
    the full ``Memory`` image or ``timing_trace``, which only the
    contracts/fuzzing paths need.
    """

    cycles: int
    instructions: int
    halt_reason: str
    stats: Tuple[Tuple[str, int], ...] = ()

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def stat(self) -> Dict[str, int]:
        return dict(self.stats)

    def to_dict(self) -> Dict:
        return {
            "schema": CACHE_FORMAT,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "halt_reason": self.halt_reason,
            "stats": {k: v for k, v in self.stats},
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "RunSummary":
        schema = payload.get("schema")
        if schema != CACHE_FORMAT:
            raise ValueError(
                f"stale RunSummary payload: schema {schema!r}, "
                f"expected {CACHE_FORMAT} (re-run to regenerate)")
        return cls(
            cycles=int(payload["cycles"]),
            instructions=int(payload["instructions"]),
            halt_reason=str(payload["halt_reason"]),
            stats=tuple(sorted(payload.get("stats", {}).items())),
        )


def summarize(result: CoreResult) -> RunSummary:
    """Project a full :class:`CoreResult` down to its perf summary."""
    return RunSummary(
        cycles=result.cycles,
        instructions=result.instructions,
        halt_reason=result.halt_reason,
        stats=tuple(sorted(result.stats.items())),
    )


@dataclass
class BatchStats:
    """Accounting for one :func:`run_batch` call."""

    total: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    simulated: int = 0
    retried: int = 0
    jobs: int = 1
    elapsed_s: float = 0.0
    #: Compiled-backend artifact cache traffic during this batch
    #: (parent-process registry deltas: with a worker pool the children
    #: compile in their own processes, so these only count in-process
    #: simulations — which is exactly the serial path).
    compile_hits: int = 0
    compile_misses: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.total if self.total else 0.0

    @property
    def compile_hit_rate(self) -> float:
        seen = self.compile_hits + self.compile_misses
        return self.compile_hits / seen if seen else 0.0

    def line(self) -> str:
        compile_part = ""
        if self.compile_hits or self.compile_misses:
            compile_part = (f", compile cache {self.compile_hits}/"
                            f"{self.compile_hits + self.compile_misses} hit")
        return (f"[executor] {self.total} specs: {self.hits} cached "
                f"({self.memory_hits} mem, {self.disk_hits} disk, "
                f"{100 * self.hit_rate:.0f}% hit rate), "
                f"{self.simulated} simulated, {self.retried} retried, "
                f"jobs={self.jobs}, {self.elapsed_s:.1f}s{compile_part}")


#: Stats of the most recent batch (tests and the bench script read it).
LAST_BATCH = BatchStats()


# ======================================================================
# Version hashing: spec + workload content + simulator source
# ======================================================================

def _hash(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
        digest.update(b"\x00")
    return digest.hexdigest()


@functools.lru_cache(maxsize=None)
def _source_fingerprint(salt: str) -> str:
    """Hash of every simulator-relevant source file (plus ``salt``)."""
    root = pathlib.Path(__file__).resolve().parent.parent
    digest = hashlib.sha256(salt.encode())
    for package in _VERSIONED_PACKAGES:
        for path in sorted((root / package).glob("*.py")):
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def code_version_hash() -> str:
    """The simulator-source component of every cache key."""
    return _source_fingerprint(os.environ.get("REPRO_CACHE_SALT", ""))


def program_fingerprint(program: Program) -> str:
    """Stable content hash of a program (instructions + layout)."""
    lines = []
    for inst in program.instructions:
        lines.append("|".join((
            inst.op.name,
            str(inst.rd), str(inst.ra), str(inst.rb), str(inst.imm),
            str(inst.target),
            inst.cond.name if inst.cond is not None else "None",
            "P" if inst.prot else "-",
        )))
    lines.append(json.dumps(sorted(program.labels.items())))
    lines.append(json.dumps([(f.name, f.start, f.end)
                             for f in program.functions]))
    lines.append(str(program.entry))
    return _hash("\n".join(lines).encode())


@functools.lru_cache(maxsize=None)
def workload_fingerprint(name: str) -> str:
    """Content hash of a workload: program, initial memory, registers."""
    workload = get_workload(name)
    memory = json.dumps(sorted(workload.memory.snapshot().items()))
    regs = json.dumps(sorted(workload.regs.items()))
    classes = json.dumps(workload.classes, sort_keys=True) \
        if isinstance(workload.classes, dict) else str(workload.classes)
    return _hash(program_fingerprint(workload.program).encode(),
                 memory.encode(), regs.encode(), classes.encode())


def spec_cache_key(spec: RunSpec) -> str:
    """Content-addressed cache key for one spec."""
    payload = json.dumps(dataclasses.asdict(spec), sort_keys=True)
    return _hash(f"v{CACHE_FORMAT}".encode(), payload.encode(),
                 workload_fingerprint(spec.workload).encode(),
                 code_version_hash().encode())


# ======================================================================
# Wire formats shared with the campaign fabric
# ======================================================================

def canonical_json(payload) -> str:
    """Byte-deterministic JSON: the fabric's dedup protocol asserts
    byte-equality of duplicate results, so every result must serialize
    to exactly one string."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def spec_to_payload(spec: RunSpec) -> Dict:
    """JSON-safe projection of a spec (the fabric's spool format)."""
    return dataclasses.asdict(spec)


def spec_from_payload(payload: Dict) -> RunSpec:
    """Rebuild a :class:`RunSpec` from :func:`spec_to_payload` output."""
    fields = {f.name for f in dataclasses.fields(RunSpec)}
    unknown = set(payload) - fields
    if unknown:
        raise ValueError(f"unknown RunSpec fields in spool payload: "
                         f"{sorted(unknown)}")
    return RunSpec(**payload)


# ======================================================================
# Persistent on-disk cache
# ======================================================================

def cache_dir() -> pathlib.Path:
    override = os.environ.get("REPRO_CACHE_DIR", "")
    if override:
        return pathlib.Path(override)
    # src/repro/bench/executor.py -> repo root is three parents up from
    # the package directory.
    return (pathlib.Path(__file__).resolve().parents[3]
            / "benchmarks" / ".cache")


def cache_enabled() -> bool:
    return os.environ.get("REPRO_NO_CACHE", "") in ("", "0")


def _cache_path(key: str) -> pathlib.Path:
    return cache_dir() / key[:2] / f"{key}.json"


def cache_load(spec: RunSpec) -> Optional[RunSummary]:
    """Look a spec up in the on-disk cache (None on miss/corruption)."""
    if not cache_enabled():
        return None
    path = _cache_path(spec_cache_key(spec))
    try:
        payload = json.loads(path.read_text())
        if payload.get("format") != CACHE_FORMAT:
            return None  # stale entry written under an older layout
        return RunSummary.from_dict(payload["summary"])
    except (OSError, ValueError, KeyError, TypeError):
        return None


def cache_store(spec: RunSpec, summary: RunSummary) -> None:
    """Persist one result (atomic write; concurrent writers are safe)."""
    if not cache_enabled():
        return
    path = _cache_path(spec_cache_key(spec))
    payload = {
        "format": CACHE_FORMAT,
        "spec": dataclasses.asdict(spec),
        "summary": summary.to_dict(),
        "created": time.time(),
    }
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)
    except OSError:
        # A read-only cache directory must never fail a run — but a
        # failed dump/replace must not leak its temp file either.
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass


def _cache_files(base: pathlib.Path):
    """(kind, path) for every cached file: ``result`` JSON summaries
    and ``compiled`` kernel artifacts (``compiled/*.py``, written by
    :func:`repro.uarch.compiled.compile_step`)."""
    for path in base.rglob("*.json"):
        yield "result", path
    for path in (base / "compiled").rglob("*.py"):
        yield "compiled", path


def wipe_cache() -> int:
    """Delete every cached result and compiled kernel; returns the
    number of files removed."""
    removed = 0
    base = cache_dir()
    if not base.exists():
        return 0
    for _, path in _cache_files(base):
        try:
            path.unlink()
            removed += 1
        except OSError:
            pass
    return removed


def cache_info() -> Dict:
    """Entry counts and total sizes of the on-disk cache: result
    summaries (``entries``/``bytes``) and compiled kernel artifacts
    (``compiled``/``compiled_bytes``).

    Entries that vanish between the directory walk and the ``stat``
    (a concurrent ``wipe_cache`` or writer replacing its temp file)
    are skipped rather than crashing the inspection.
    """
    base = cache_dir()
    counts = {"result": 0, "compiled": 0}
    sizes = {"result": 0, "compiled": 0}
    if base.exists():
        for kind, path in _cache_files(base):
            try:
                sizes[kind] += path.stat().st_size
            except OSError:
                continue  # deleted mid-walk by a concurrent wipe/writer
            counts[kind] += 1
    return {
        "dir": str(base),
        "enabled": cache_enabled(),
        "entries": counts["result"],
        "bytes": sizes["result"],
        "compiled": counts["compiled"],
        "compiled_bytes": sizes["compiled"],
    }


# ======================================================================
# Single-spec entry point (in-process)
# ======================================================================

_summary_cache: Dict[RunSpec, RunSummary] = {}


def run_summary(spec: RunSpec) -> RunSummary:
    """Summary of one simulation: memory cache, then disk, then run."""
    cached = _summary_cache.get(spec)
    if cached is not None:
        return cached
    recorder = get_recorder()
    if recorder is None:
        summary = cache_load(spec)
    else:
        with recorder.span("cache.lookup"):
            summary = cache_load(spec)
    if summary is None:
        return _simulate_summary(spec)
    _summary_cache[spec] = summary
    return summary


def _simulate_summary(spec: RunSpec) -> RunSummary:
    """Simulate a spec already known to miss both caches, then store
    and memoize its summary."""
    recorder = get_recorder()
    if recorder is None:
        summary = summarize(execute_spec(spec))
        cache_store(spec, summary)
    else:
        with recorder.span("sim", attrs=span_attrs_for_spec(spec)):
            summary = summarize(execute_spec(spec))
        with recorder.span("cache.write"):
            cache_store(spec, summary)
    _summary_cache[spec] = summary
    return summary


def clear_summary_cache() -> None:
    _summary_cache.clear()
    workload_fingerprint.cache_clear()
    _source_fingerprint.cache_clear()


# ======================================================================
# The parallel batch API
# ======================================================================

def resolve_jobs(jobs: Optional[int] = None) -> int:
    """``--jobs`` argument > ``REPRO_JOBS`` env > ``os.cpu_count()``.

    The single warn-and-fallback job resolver shared by the batch
    executor and the fuzzing campaigns: a malformed ``REPRO_JOBS``
    value (``REPRO_JOBS=four``) is warned about and ignored rather
    than crashing the run — the env var is ambient configuration, not
    an argument the caller validated.
    """
    if jobs is not None:
        return max(1, int(jobs))
    env = os.environ.get("REPRO_JOBS", "")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            logger.warning(
                "ignoring malformed REPRO_JOBS=%r (expected an integer); "
                "falling back to cpu count", env)
    return os.cpu_count() or 1


class _WorkerTimeout(Exception):
    pass


def _worker_run(spec: RunSpec, timeout_s: Optional[float],
                trace_ctx: Optional[Dict] = None) -> Tuple:
    """Pool worker: simulate one spec under a wall-clock alarm.

    Returns ``(status, spec, payload, sim_seconds)`` with status one of
    ``"ok"`` (payload: :class:`RunSummary`), ``"timeout"``, or
    ``"error"`` (payload: message).  ``sim_seconds`` is the worker-side
    wall time, so the parent can split queue wait from simulation time
    in its metrics; the parent also accepts legacy 3-tuples from
    test-injected workers.  The worker writes the disk cache itself so
    completed work survives even if the parent dies mid-batch.

    ``trace_ctx`` (a span wire context) is only passed when the parent
    has a span recorder attached: the worker then records its own spans
    under a ``worker.run`` span parented to the submitting side's
    attempt span, and returns them as a fifth tuple element of span
    dicts for the parent to adopt.  Without it the tuple stays 4-wide
    and no tracing machinery runs — the zero-overhead contract.
    """
    recorder = None
    run_span = None
    if trace_ctx is not None:
        recorder = SpanRecorder()
        previous_recorder = set_recorder(recorder)
        run_span = recorder.start(
            "worker.run", attrs={"pid": os.getpid()}, parent=trace_ctx,
            push=True)
    use_alarm = bool(timeout_s) and hasattr(signal, "SIGALRM")
    if use_alarm:
        def _on_alarm(signum, frame):
            raise _WorkerTimeout()
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout_s)
    started = time.perf_counter()
    try:
        summary = run_summary(spec)
        status, payload = "ok", summary
    except _WorkerTimeout:
        status, payload = "timeout", None
    except Exception as exc:  # noqa: BLE001 — report, parent decides
        status, payload = "error", f"{type(exc).__name__}: {exc}"
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    elapsed = time.perf_counter() - started
    if recorder is None:
        return (status, spec, payload, elapsed)
    recorder.finish(run_span, status=status)
    set_recorder(previous_recorder)
    return (status, spec, payload, elapsed, recorder.to_dicts())


def _progress_enabled() -> bool:
    forced = os.environ.get("REPRO_PROGRESS", "")
    if forced:
        return forced != "0"
    return sys.stderr.isatty()


def _progress(stats: BatchStats, done: int, final: bool = False) -> None:
    if not _progress_enabled():
        return
    sys.stderr.write(f"\r[executor] {done}/{stats.total} "
                     f"({stats.hits} cached, {stats.simulated} simulated, "
                     f"{stats.retried} retried) jobs={stats.jobs}")
    if final:
        sys.stderr.write("\n")
    sys.stderr.flush()


def run_batch(
    specs: Iterable[RunSpec],
    jobs: Optional[int] = None,
    timeout_s: Optional[float] = DEFAULT_TIMEOUT_S,
    retries: int = DEFAULT_RETRIES,
    worker: Optional[Callable] = None,
    fabric: Optional[str] = None,
) -> Dict[RunSpec, RunSummary]:
    """Resolve a whole spec matrix, fanning misses out over processes.

    Specs already in the in-memory or on-disk cache are never re-run.
    With an effective job count of 1 (or a single pending spec) the
    batch runs serially in-process — parallel and serial paths produce
    bit-identical results because every simulation is a pure function
    of its spec.

    ``worker`` overrides the pool worker function (tests use this to
    exercise the timeout/retry/crash paths).

    ``fabric`` (or the ``REPRO_FABRIC`` environment variable) names a
    campaign-fabric spool directory: pending specs are sharded through
    the broker/worker fabric (see :mod:`repro.bench.fabric`) instead of
    a local process pool, and the merged results are byte-identical to
    the serial path because result identity never depends on where a
    spec ran.
    """
    global LAST_BATCH
    ordered: List[RunSpec] = []
    seen = set()
    for spec in specs:
        if spec not in seen:
            seen.add(spec)
            ordered.append(spec)

    stats = BatchStats(total=len(ordered))
    registry = get_registry()
    recorder = get_recorder()
    batch_span = None
    if recorder is not None:
        batch_span = recorder.start(
            "executor.batch", attrs={"specs": len(ordered)}, push=True)
    if registry is not None:
        compile_before = (
            registry.counter("uarch.compile_cache_hits").value
            + registry.counter("uarch.compile_cache_disk_hits").value,
            registry.counter("uarch.compile_cache_misses").value)
    started = time.monotonic()
    results: Dict[RunSpec, RunSummary] = {}
    pending: List[RunSpec] = []
    try:
        for spec in ordered:
            cached = _summary_cache.get(spec)
            if cached is not None:
                results[spec] = cached
                stats.memory_hits += 1
                if recorder is not None:
                    now = recorder.now()
                    recorder.add("spec", now, now, attrs=dict(
                        span_attrs_for_spec(spec), cache="memory"))
                continue
            lookup_started = recorder.now() if recorder is not None \
                else 0.0
            cached = cache_load(spec)
            if cached is not None:
                results[spec] = cached
                _summary_cache[spec] = cached
                stats.disk_hits += 1
                if recorder is not None:
                    recorder.add("spec", lookup_started, recorder.now(),
                                 attrs=dict(span_attrs_for_spec(spec),
                                            cache="disk"))
                continue
            pending.append(spec)

        stats.jobs = resolve_jobs(jobs)
        if fabric is None:
            fabric = os.environ.get("REPRO_FABRIC") or None
        if pending:
            if fabric:
                from .fabric.broker import run_batch_fabric

                run_batch_fabric(pending, fabric, results, stats,
                                 retries=retries, registry=registry)
            elif stats.jobs <= 1 or len(pending) == 1:
                stats.jobs = 1
                for index, spec in enumerate(pending):
                    spec_started = time.perf_counter()
                    # Already looked up above: simulate directly.
                    if recorder is None:
                        results[spec] = _simulate_summary(spec)
                    else:
                        with recorder.span(
                                "spec", attrs=span_attrs_for_spec(spec)):
                            results[spec] = _simulate_summary(spec)
                    if registry is not None:
                        registry.timer("executor.spec_seconds").observe(
                            time.perf_counter() - spec_started)
                    stats.simulated += 1
                    _progress(stats, len(results))
            else:
                _run_pool(pending, stats, timeout_s, retries,
                          worker or _worker_run, results, registry)
        stats.elapsed_s = time.monotonic() - started
    finally:
        if recorder is not None:
            recorder.finish(batch_span, simulated=stats.simulated,
                            cached=stats.hits, jobs=stats.jobs)
    if registry is not None:
        stats.compile_hits = (
            registry.counter("uarch.compile_cache_hits").value
            + registry.counter("uarch.compile_cache_disk_hits").value
            - compile_before[0])
        stats.compile_misses = (
            registry.counter("uarch.compile_cache_misses").value
            - compile_before[1])
    _progress(stats, len(results), final=True)
    if registry is not None:
        counter = registry.counter
        counter("executor.batches").inc()
        counter("executor.specs").inc(stats.total)
        counter("executor.simulated").inc(stats.simulated)
        counter("executor.retried").inc(stats.retried)
        counter("cache.memory_hits").inc(stats.memory_hits)
        counter("cache.disk_hits").inc(stats.disk_hits)
        counter("cache.misses").inc(stats.simulated)
        registry.timer("executor.batch_seconds").observe(stats.elapsed_s)
    logger.info("%s", stats.line())
    LAST_BATCH = stats
    return results


def _run_pool(pending: List[RunSpec], stats: BatchStats,
              timeout_s: Optional[float], retries: int,
              worker: Callable,
              results: Dict[RunSpec, RunSummary],
              registry=None) -> None:
    """Fan ``pending`` out over a process pool, retrying failures.

    Worker crashes surface as :class:`BrokenProcessPool`; the pool is
    rebuilt and every unfinished spec re-queued (each charged one
    attempt so a reliably crashing spec cannot loop forever).  Every
    (re)submission stamps a fresh ``submitted`` timestamp, so the
    ``executor.queue_wait_seconds`` metric for a completion after a
    pool rebuild measures the wait since the rebuild — not a stale
    epoch from before the crash.

    With a span recorder attached, each spec gets one ``spec`` span for
    its whole pool lifetime and one ``attempt`` span per submission
    (``attempt=N`` attr) parented under it; the worker-side trace
    context handed to ``pool.submit`` is the attempt span's, so retries
    after a crash or timeout stay under the same spec span.  The extra
    ``trace_ctx`` argument is only passed when a recorder is attached,
    so injected test workers with the legacy 2-argument signature keep
    working untraced.
    """
    recorder = get_recorder()
    spec_spans: Dict[RunSpec, object] = {}
    attempt_spans: Dict[RunSpec, object] = {}
    attempts: Dict[RunSpec, int] = {spec: 0 for spec in pending}
    submitted: Dict[RunSpec, float] = {}
    queue = list(pending)
    while queue:
        workers = min(stats.jobs, len(queue))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {}
            try:
                for spec in queue:
                    attempts[spec] += 1
                    if recorder is not None:
                        spec_span = spec_spans.get(spec)
                        if spec_span is None:
                            spec_span = spec_spans[spec] = recorder.start(
                                "spec", attrs=span_attrs_for_spec(spec))
                        attempt_span = recorder.start(
                            "attempt", attrs={"attempt": attempts[spec]},
                            parent=spec_span)
                        attempt_spans[spec] = attempt_span
                        future = pool.submit(worker, spec, timeout_s,
                                             attempt_span.context())
                    else:
                        future = pool.submit(worker, spec, timeout_s)
                    futures[future] = spec
                    submitted[spec] = time.perf_counter()
                queue = []
                not_done = set(futures)
                while not_done:
                    done, not_done = wait(not_done,
                                          return_when=FIRST_COMPLETED)
                    for future in done:
                        spec = futures[future]
                        outcome = future.result()
                        status, payload = outcome[0], outcome[2]
                        # Injected test workers may return legacy
                        # 3-tuples without the worker-side wall time.
                        sim_s = outcome[3] if len(outcome) > 3 else None
                        if status == "ok":
                            results[spec] = payload
                            _summary_cache[spec] = payload
                            cache_store(spec, payload)
                            stats.simulated += 1
                            if recorder is not None:
                                _finish_pool_spans(
                                    recorder, spec, spec_spans,
                                    attempt_spans,
                                    outcome[4] if len(outcome) > 4
                                    else ())
                            if registry is not None:
                                _observe_pool_spec(registry, sim_s,
                                                   submitted.get(spec))
                            _progress(stats, len(results))
                        elif status == "timeout":
                            if registry is not None:
                                registry.counter("executor.timeouts").inc()
                            _fail_attempt_span(recorder, spec,
                                               attempt_spans, "timeout")
                            _requeue(spec, attempts, retries, queue, stats,
                                     f"timed out after {timeout_s}s",
                                     registry)
                        else:
                            _fail_attempt_span(recorder, spec,
                                               attempt_spans, str(payload))
                            _requeue(spec, attempts, retries, queue, stats,
                                     payload, registry)
            except BrokenProcessPool:
                for future, spec in futures.items():
                    if spec not in results and spec not in queue:
                        # Drop the pre-crash submission stamp: the spec
                        # is re-stamped when the rebuilt pool resubmits
                        # it, so its queue wait restarts at zero.
                        submitted.pop(spec, None)
                        _fail_attempt_span(recorder, spec, attempt_spans,
                                           "worker process crashed")
                        _requeue(spec, attempts, retries, queue, stats,
                                 "worker process crashed", registry)


def _finish_pool_spans(recorder, spec, spec_spans, attempt_spans,
                       span_payloads) -> None:
    """Close out one pool completion: adopt the worker's spans, record
    the queue wait (attempt start → worker.run start, same host), and
    finish the attempt and spec spans."""
    attempt_span = attempt_spans.pop(spec, None)
    spec_span = spec_spans.pop(spec, None)
    worker_started = None
    if span_payloads:
        recorder.adopt(span_payloads)
        worker_started = min(
            (p["start_s"] for p in span_payloads
             if p.get("name") == "worker.run"), default=None)
    if attempt_span is not None:
        if worker_started is not None \
                and worker_started > attempt_span.start_s:
            recorder.add("queue.wait", attempt_span.start_s,
                         worker_started, parent=attempt_span)
        recorder.finish(attempt_span)
    if spec_span is not None:
        recorder.finish(spec_span)


def _fail_attempt_span(recorder, spec, attempt_spans, why: str) -> None:
    """Finish a failed submission's attempt span (the spec span stays
    open: the retry's attempt span parents under it)."""
    if recorder is None:
        return
    attempt_span = attempt_spans.pop(spec, None)
    if attempt_span is not None:
        recorder.finish(attempt_span, error=why)


def _observe_pool_spec(registry, sim_s: Optional[float],
                       submitted_at: Optional[float]) -> None:
    """Record one pool completion: simulation time and queue wait."""
    turnaround = (time.perf_counter() - submitted_at
                  if submitted_at is not None else None)
    if sim_s is None:
        sim_s = turnaround
    if sim_s is not None:
        registry.timer("executor.spec_seconds").observe(sim_s)
    if turnaround is not None and sim_s is not None:
        registry.timer("executor.queue_wait_seconds").observe(
            max(0.0, turnaround - sim_s))


def _requeue(spec: RunSpec, attempts: Dict[RunSpec, int], retries: int,
             queue: List[RunSpec], stats: BatchStats, why: str,
             registry=None) -> None:
    if attempts[spec] > retries:
        raise ExecutorError(
            f"{spec} failed after {attempts[spec]} attempts: {why}")
    logger.warning("requeueing %s (attempt %d/%d): %s",
                   spec, attempts[spec], retries + 1, why)
    stats.retried += 1
    if registry is not None:
        registry.counter("executor.requeues").inc()
    queue.append(spec)
