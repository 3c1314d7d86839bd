"""Multi-core simulation (paper SVIII-A4, Tab. III).

The paper simulates multi-threaded PARSEC end-to-end on a full Alder
Lake configuration: 8 P-cores + 8 E-cores, private L1/L2, one shared
LLC, directory-based MESI.  This module provides the equivalent
substrate: N cores stepping in lockstep over one shared address space,
each with private L1D/L2 (kept coherent by write-invalidation broadcast
at store commit — the observable effect of MESI for our timing-and-tags
model, in which data always comes from the shared backing memory) and a
shared L3.

Threads are data-parallel in the PARSEC style: every core runs the same
program with its thread id in a register, sharding the data space.

Lockstep means: every global cycle, each running core simulates that
cycle, in thread-id order.  The interpreter engines step every core
every cycle.  The compiled engine runs each core's generated kernel as
a generator (:mod:`repro.uarch.compiled`) that yields the cycle it is
about to simulate; the driver resumes, in thread-id order, exactly the
cores due at the current global cycle and then jumps to the earliest
cycle any core is due.  Skipping a core that is inside a fast-forward
window is exact: such a core makes no cache or memory access, commits
no store and calls no defense hook, so it can neither cause nor observe
a cross-core effect.  Cross-core state reaches a core only three ways —
``caches.invalidate`` from a sibling's store commit (which may also
clear L1D protection tags through the eviction listener), the shared
L3, and the shared :class:`~repro.arch.memory.Memory` — and all three
are read only when the core itself makes an access.  No defense gate
reads them either, so the wake epochs of parked refusals stay valid
across a sibling's events.  ``repro diff`` checks the compiled driver
against the stepped reference (:func:`repro.uarch.refcore.multicore_cases`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..arch.executor import STACK_TOP
from ..arch.memory import Memory
from ..isa.program import Program
from .caches import Cache
from .config import CoreConfig, E_CORE, P_CORE
from .pipeline import (
    Core,
    DEFAULT_MAX_CYCLES,
    DEFAULT_NO_PROGRESS_LIMIT,
    resolve_engine,
)

#: Register that carries the thread id into each thread's code.
TID_REG = 13

#: Per-thread stack spacing within the shared address space.
STACK_STRIDE = 0x10000

#: Next-cycle value of a core whose kernel has finished.
_DONE = 1 << 62


@dataclass
class MultiCoreResult:
    """Outcome of a multi-threaded run."""

    cycles: int                       # wall clock: slowest thread
    per_thread_cycles: List[int]
    halt_reasons: List[str]
    memory: Memory
    invalidations: int
    per_thread_instructions: List[int] = field(default_factory=list)

    @property
    def threads(self) -> int:
        return len(self.per_thread_cycles)


class MultiCore:
    """N cores over one address space with a shared L3.

    ``engine`` takes :func:`~repro.uarch.pipeline.simulate`'s vocabulary
    (``None`` defers to ``REPRO_ENGINE``, then ``"auto"``: compiled
    unless ``REPRO_NO_COMPILE`` is set): ``"ref"``/``"refcore"`` steps
    reference cores, ``"fast"`` steps fast-path interpreter cores, and
    ``"compiled"`` drives one generated kernel per core.  Each core
    stops on its own at ``halt``, ``max_cycles`` or the no-progress
    limit, and the others keep running.
    """

    def __init__(
        self,
        program: Program,
        defense_factory,
        memory: Optional[Memory] = None,
        threads: int = 4,
        p_cores: int = 8,
        p_config: CoreConfig = P_CORE,
        e_config: CoreConfig = E_CORE,
        regs: Optional[Dict[int, int]] = None,
        max_cycles: int = DEFAULT_MAX_CYCLES,
        no_progress_limit: Optional[int] = DEFAULT_NO_PROGRESS_LIMIT,
        engine: Optional[str] = None,
    ) -> None:
        if threads < 1:
            raise ValueError("need at least one thread")
        fast_path, self.compiled = resolve_engine(engine)
        self.memory = memory.copy() if memory is not None else Memory()
        self.shared_l3 = Cache(p_config.l3)
        self.invalidations = 0
        self.max_cycles = max_cycles

        def build(core_class, **engine_kwargs) -> List[Core]:
            cores = []
            for tid in range(threads):
                # Hybrid scheduling: the first p_cores threads land on
                # P-cores, the rest on E-cores (Tab. III's 8P + 8E).
                config = p_config if tid < p_cores else e_config
                thread_regs = dict(regs or {})
                thread_regs[TID_REG] = tid
                thread_regs.setdefault(15, STACK_TOP + tid * STACK_STRIDE)
                cores.append(core_class(
                    program,
                    defense_factory(),
                    config,
                    memory=self.memory,
                    regs=thread_regs,
                    max_cycles=max_cycles,
                    shared_memory=True,
                    shared_l3=self.shared_l3,
                    store_commit_listener=self._on_store_commit,
                    no_progress_limit=no_progress_limit,
                    **engine_kwargs,
                ))
            return cores

        if self.compiled:
            from .compiled import CompiledCore, CompileUnsupported

            try:
                self.cores = build(CompiledCore)
            except CompileUnsupported:
                self.compiled = False  # fall back to the interpreter
        if not self.compiled:
            self.cores = build(Core, fast_path=fast_path)

    def _on_store_commit(self, writer: Core, addr: int) -> None:
        """Write-invalidation broadcast: the observable MESI effect."""
        for core in self.cores:
            if core is not writer:
                if core.caches.l1d.contains(addr):
                    self.invalidations += 1
                core.caches.invalidate(addr)

    def run(self) -> MultiCoreResult:
        """Run all cores in lockstep until every thread stops."""
        host_start = time.perf_counter()
        if self.compiled:
            self._run_kernels()
        else:
            self._run_stepped()
        elapsed = time.perf_counter() - host_start
        cores = self.cores
        total = sum(core.cycle for core in cores)
        for core in cores:
            core._settle_halt_reason()
            if core.metrics is not None:
                # Each thread's share of the wall time, in proportion to
                # its cycles: sim_cycles / run_seconds.sum stays the
                # run's core-cycles per second.
                core._publish_run(core.metrics, elapsed * core.cycle / total
                                  if total else 0.0)
        results = [core._result() for core in cores]
        return MultiCoreResult(
            cycles=max(r.cycles for r in results),
            per_thread_cycles=[r.cycles for r in results],
            halt_reasons=[r.halt_reason for r in results],
            memory=self.memory,
            invalidations=self.invalidations,
            per_thread_instructions=[r.instructions for r in results],
        )

    def _run_stepped(self) -> None:
        """Interpreter lockstep: every running core steps every cycle."""
        cores = self.cores
        cycle = 0
        while cycle < self.max_cycles:
            running = False
            for core in cores:
                if not core.halted and not core._no_progress():
                    core.step()
                    running = True
            if not running:
                break
            cycle += 1

    def _run_kernels(self) -> None:
        """Compiled lockstep: resume, in thread-id order, exactly the
        kernels due at the current cycle, then jump to the earliest
        cycle any kernel is due (see the module docstring for why the
        cores it skips cannot be affected)."""
        kernels = [core._compiled_run(core, True) for core in self.cores]
        due = [next(kernel, _DONE) for kernel in kernels]
        now = min(due)
        while now != _DONE:
            for tid, kernel in enumerate(kernels):
                if due[tid] == now:
                    due[tid] = next(kernel, _DONE)
            now = min(due)


def simulate_mt(program: Program, defense_factory, memory=None,
                threads: int = 4, **kwargs) -> MultiCoreResult:
    """Run a data-parallel program across ``threads`` cores (``kwargs``
    as for :class:`MultiCore`, ``engine=`` included)."""
    return MultiCore(program, defense_factory, memory, threads,
                     **kwargs).run()
