"""Correctness oracle and simulated-result digest.

Every rule compares the out-of-order simulator (``repro.uarch``) with
the sequential reference machine (``repro.arch.run_program``), which
shares no code with it, or checks an accounting identity of the
modelled core.  Each check returns a list of mismatch descriptions; an
empty list passes.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, NamedTuple, Sequence


class Reference(NamedTuple):
    """What the oracle keeps of a sequential run: no per-step records,
    so memoised references do not grow the heap the measured ops run
    in."""

    halt_reason: str
    final_regs: tuple
    pcs: tuple
    memory: object

    @classmethod
    def of(cls, seq) -> "Reference":
        return cls(seq.halt_reason, tuple(seq.final_regs),
                   tuple(step.pc for step in seq.steps), seq.memory)


def stall_mismatch(stats: Dict[str, int], width: int,
                   cycles: int) -> List[str]:
    """Every issue slot is either used by a committed uop or charged to
    exactly one stall cause: ``sum(stall_*) == width*cycles - committed``."""
    stalls = sum(v for k, v in stats.items() if k.startswith("stall_"))
    expected = width * cycles - stats["committed_uops"]
    if stalls != expected:
        return [f"stall slots {stalls} != width*cycles - committed "
                f"{expected}"]
    return []


def core_mismatch(result, seq: Reference, width: int) -> List[str]:
    """A single-core run against the sequential run of the same binary
    on the same inputs."""
    problems = []
    if result.halt_reason != "halt":
        problems.append(f"halt reason {result.halt_reason!r}")
    if seq.halt_reason != "halt":
        problems.append(f"reference halt reason {seq.halt_reason!r}")
    if tuple(result.final_regs) != tuple(seq.final_regs):
        diff = [i for i, (a, b) in enumerate(zip(result.final_regs,
                                                  seq.final_regs)) if a != b]
        problems.append(f"final registers differ at r{diff}")
    if tuple(result.committed_pcs) != seq.pcs:
        problems.append(f"committed PCs differ ({len(result.committed_pcs)} "
                        f"vs {len(seq.pcs)} instructions)")
    if result.memory != seq.memory:
        problems.append("final memory differs")
    problems += stall_mismatch(result.stats, width, result.cycles)
    return problems


def summary_mismatch(summary, instructions: int, width: int) -> List[str]:
    """A cached run summary against the sequential instruction count."""
    problems = []
    if summary.halt_reason != "halt":
        problems.append(f"halt reason {summary.halt_reason!r}")
    if summary.instructions != instructions:
        problems.append(f"{summary.instructions} committed instructions, "
                        f"reference {instructions}")
    problems += stall_mismatch(summary.stat, width, summary.cycles)
    return problems


def multicore_mismatch(result, shard_runs: Sequence[Reference],
                       final_memory) -> List[str]:
    """A data-parallel run against its shards run one after another on
    one memory image (``shard_runs[tid]`` ran thread ``tid``'s shard)."""
    problems = []
    for tid, (reason, seq) in enumerate(zip(result.halt_reasons,
                                            shard_runs)):
        if reason != "halt" or seq.halt_reason != "halt":
            problems.append(f"thread {tid} halted {reason!r}, reference "
                            f"{seq.halt_reason!r}")
        committed = result.per_thread_instructions[tid]
        if committed != len(seq.pcs):
            problems.append(f"thread {tid} committed {committed}, shard "
                            f"ran {len(seq.pcs)}")
    if result.memory != final_memory:
        problems.append("final shared memory differs from the shards run "
                        "in sequence")
    return problems


def fuzz_mismatch(protected_violations: int, unsafe_violations: int
                  ) -> List[str]:
    """The protected cell must hold its contract and the unsafe cell
    must not: an unsafe cell without a violation means the fuzz oracle
    has gone blind."""
    problems = []
    if protected_violations:
        problems.append(f"ProtTrack cell recorded {protected_violations} "
                        f"violations")
    if not unsafe_violations:
        problems.append("unsafe cell recorded no violation")
    return problems


class Digest:
    """Hash of every op's simulated outcome, independent of the order in
    which the ops ran, so runs of the same op set agree whatever order
    their seed gave them."""

    def __init__(self) -> None:
        self._items: List[bytes] = []

    @property
    def items(self) -> int:
        return len(self._items)

    def add(self, *parts) -> None:
        self._items.append(hashlib.sha256(repr(parts).encode()).digest())

    def add_stats(self, label: str, cycles: int, stats: Dict[str, int]
                  ) -> None:
        self.add(label, cycles, sorted(stats.items()))

    def hexdigest(self) -> str:
        return hashlib.sha256(b"".join(sorted(self._items))).hexdigest()[:16]
