"""Measurement probes wrapped around the simulator's public functions.

The benchmark never edits the program it measures.  It replaces module
attributes (the names a caller resolves at call time) with timing
wrappers for the duration of one timed phase, and restores them after.
Defense hooks are wrapped per *instance*, so ``type(defense)`` and with
it the compiled kernel key stay unchanged.

Two probes exist:

* the plain probe (``traced=False``) does what the untraced run needs
  and no more, one Python call per wrapped call: it counts
  ``compile_step`` calls, which tells which engine ran an op; times each
  contract check; keeps each contract-checker simulation's stats for
  the digest; and stamps when each result-cache store or load returns.
* the traced probe also records a span at every layer boundary -- name,
  start, end, parent and op id -- and aggregates the defense hooks
  (about a million calls per fuzz cell) into per-span child time
  instead of one span each.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

HOOKS = ("on_rename", "may_execute", "may_resolve", "may_wakeup",
         "on_load_executed", "on_commit", "on_squash",
         "execute_recheck_seq", "resolve_recheck_seq", "wakeup_recheck_seq")
GATES = frozenset(("may_execute", "may_resolve", "may_wakeup"))

_clock = time.perf_counter


class _Frame:
    __slots__ = ("name", "start", "child", "index", "parent")

    def __init__(self, name, start, index, parent):
        self.name = name
        self.start = start
        self.child = 0.0
        self.index = index
        self.parent = parent


class Probe:
    """One timed phase's instrumentation state."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.compile_steps = 0
        #: (engine, cycles, halt reason, stats) of each contract-checker
        #: simulation, in call order.
        self.checker_results: List[tuple] = []
        #: (name, start, end, parent index, op id) per finished span.
        self.spans: List[tuple] = []
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.hook_calls: Counter = Counter()
        self.hook_time: Dict[str, float] = defaultdict(float)
        self.gate_allowed = [0]
        self.kernel_keys = set()
        self.codegen_lines = 0
        self.engine_cycles: Counter = Counter()
        self.engine_loop_s: Dict[str, float] = defaultdict(float)
        self.op_id: Optional[str] = None
        #: Return times of the result-cache function named by
        #: ``arrive_on``: when the caller got each spec's result.
        self.arrive_on: Optional[str] = None
        self.arrivals: List[tuple] = []
        self.cache_hits = 0
        #: (latency, first, end) of each contract check: its host time
        #: and the slice of ``checker_results`` its simulations produced.
        self.pairs: List[tuple] = []
        self._stack = [_Frame("root", _clock(), -1, -1)]

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------

    def _open(self, name: str) -> _Frame:
        frame = _Frame(name, _clock(), len(self.spans), self._stack[-1].index)
        self.spans.append(None)  # reserve the slot: parents precede children
        self._stack.append(frame)
        return frame

    def _close(self, frame: _Frame) -> float:
        end = _clock()
        self._stack.pop()
        duration = end - frame.start
        self_s = duration - frame.child
        self.spans[frame.index] = (frame.name, frame.start, end,
                                   frame.parent, self.op_id)
        self.self_time[frame.name] += self_s
        self.calls[frame.name] += 1
        self._stack[-1].child += duration
        return self_s

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.traced:
            yield
            return
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame)

    @contextlib.contextmanager
    def op(self, op_id: str):
        """The root span of one benchmark op."""
        self.op_id = op_id
        try:
            with self.span("op"):
                yield
        finally:
            self.op_id = None

    def _timed(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            frame = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame)
        return wrapper

    # ------------------------------------------------------------------
    # Defense hooks (per instance)
    # ------------------------------------------------------------------

    def wrap_defense(self, defense):
        """Time every hook of one defense instance; returns it."""
        if not self.traced:
            return defense
        stack = self._stack
        calls = self.hook_calls
        times = self.hook_time
        allowed = self.gate_allowed
        for hook in HOOKS:
            fn = getattr(defense, hook)

            def wrapper(uop, _fn=fn, _hook=hook, _gate=hook in GATES):
                start = _clock()
                answer = _fn(uop)
                elapsed = _clock() - start
                calls[_hook] += 1
                times[_hook] += elapsed
                stack[-1].child += elapsed
                if _gate and answer:
                    allowed[0] += 1
                return answer
            setattr(defense, hook, wrapper)
        return defense

    def defense_factory(self, factory: Callable) -> Callable:
        def build():
            return self.wrap_defense(factory())
        return build

    # ------------------------------------------------------------------
    # Simulations
    # ------------------------------------------------------------------

    def simulate(self, fn: Callable, capture: bool) -> Callable:
        """Wrap a ``simulate`` reference: engine attribution, loop self
        time per engine, and (``capture``) the result for the digest."""
        probe = self

        def wrapper(*args, **kwargs):
            steps = probe.compile_steps
            frame = probe._open("uarch.simulate") if probe.traced else None
            try:
                result = fn(*args, **kwargs)
            finally:
                loop_s = probe._close(frame) if frame is not None else 0.0
            engine = "compiled" if probe.compile_steps > steps else "interp"
            if frame is not None:
                probe.engine_cycles[engine] += result.cycles
                probe.engine_loop_s[engine] += loop_s
            if capture:
                probe.checker_results.append(
                    (engine, result.cycles, result.halt_reason, result.stats))
            return result
        return wrapper

    def _check_pair(self, fn: Callable) -> Callable:
        probe = self

        def wrapper(*args, **kwargs):
            first = len(probe.checker_results)
            frame = probe._open("contracts.check") if probe.traced else None
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                latency = _clock() - start
                if frame is not None:
                    probe._close(frame)
                probe.pairs.append((latency, first,
                                    len(probe.checker_results)))
        return wrapper

    def _cache_io(self, name: str, fn: Callable) -> Callable:
        probe = self

        def wrapper(*args, **kwargs):
            frame = probe._open(f"bench.{name}") if probe.traced else None
            try:
                answer = fn(*args, **kwargs)
                if name == "cache_load" and answer is not None:
                    probe.cache_hits += 1
                return answer
            finally:
                if frame is not None:
                    probe._close(frame)
                if probe.arrive_on == name:
                    probe.arrivals.append((args[0], _clock()))
        return wrapper

    def multicore_span(self, run: Callable, cycles_of: Callable):
        """Run a multi-core simulation under a ``uarch.multicore`` span."""
        frame = self._open("uarch.multicore") if self.traced else None
        try:
            result = run()
        finally:
            loop_s = self._close(frame) if frame is not None else 0.0
        if frame is not None:
            self.engine_cycles["interp"] += cycles_of(result)
            self.engine_loop_s["interp"] += loop_s
        return result

    # ------------------------------------------------------------------
    # Module patching
    # ------------------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Install the wrappers for one timed phase."""
        import repro.bench.executor as executor
        import repro.bench.runner as runner
        import repro.contracts.checker as checker
        import repro.fuzzing.campaign as campaign
        import repro.uarch.compiled as compiled

        saved = []

        def patch(owner, name, value):
            saved.append((owner, name, getattr(owner, name)))
            setattr(owner, name, value)

        probe = self
        compile_step = compiled.compile_step

        def counted_compile_step(program, config, defense, metrics=None):
            probe.compile_steps += 1
            if not probe.traced:
                return compile_step(program, config, defense, metrics)
            probe.kernel_keys.add(
                compiled.compile_key(program, config, defense))
            frame = probe._open("uarch.compile_step")
            try:
                return compile_step(program, config, defense, metrics)
            finally:
                probe._close(frame)

        patch(compiled, "compile_step", counted_compile_step)
        for name in ("cache_store", "cache_load"):
            patch(executor, name,
                  self._cache_io(name, getattr(executor, name)))
        patch(checker, "simulate", self.simulate(checker.simulate, True))
        patch(campaign, "check_contract_pair",
              self._check_pair(campaign.check_contract_pair))
        if self.traced:
            generate_source = compiled.generate_source

            def counted_codegen(*args, **kwargs):
                frame = probe._open("uarch.codegen")
                try:
                    source = generate_source(*args, **kwargs)
                finally:
                    probe._close(frame)
                probe.codegen_lines += source.count("\n")
                return source

            patch(compiled, "generate_source", counted_codegen)
            patch(runner, "simulate", self.simulate(runner.simulate, False))
            for owner in (runner, campaign):
                patch(owner, "compile_program",
                      self._timed("protcc.compile", owner.compile_program))
                patch(owner, "mitigate_program",
                      self._timed("protcc.mitigate", owner.mitigate_program))
            for name in ("generate_program", "generate_input",
                         "mutate_input"):
                patch(campaign, name,
                      self._timed("fuzzing.gen", getattr(campaign, name)))
            patch(checker, "run_program",
                  self._timed("arch.seq", checker.run_program))
            patch(checker, "contract_trace",
                  self._timed("contracts.trace", checker.contract_trace))
            for name in ("observe", "first_divergence"):
                patch(checker, name,
                      self._timed("contracts.observe", getattr(checker, name)))
            instance = runner.RunSpec.defense_instance
            patch(runner.RunSpec, "defense_instance",
                  lambda spec: probe.wrap_defense(instance(spec)))
        try:
            yield self
        finally:
            for owner, name, value in reversed(saved):
                setattr(owner, name, value)
