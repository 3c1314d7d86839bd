"""Dynamic micro-op: one in-flight instance of an instruction.

Carries renamed operands, execution state, per-stage timestamps (the
timing adversary's observation, paper SVII-B1d), and the per-uop slots
that ProtISA and the defense policies annotate.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..isa.instruction import Instruction


class Uop:
    """An in-flight micro-op."""

    __slots__ = (
        "seq", "pc", "inst", "predicted_next",
        # instruction-class predicates, copied from ``inst`` at
        # construction (plain attributes: the scheduler reads them
        # millions of times per run and property indirection showed up
        # in profiles)
        "is_branch", "is_load", "is_store",
        # renamed operands: (arch_reg, phys_reg) pairs
        "psrcs", "pdests", "old_pdests",
        # transmitter-sensitive physical operands, memoized by
        # ``Defense.execute_sensitive_pregs`` / ``resolve_sensitive_pregs``
        # (``psrcs`` never changes after rename)
        "exec_sensitive", "resolve_sensitive",
        # lifecycle
        "in_rob", "issued", "executed", "completed", "committed", "squashed",
        # execution results
        "result_values", "actual_next", "taken",
        "mem_addr", "mem_value", "store_data",
        "forwarded_from",
        # memory-protection observation (ProtISA LSQ tag, paper SIV-C2b)
        "lsq_prot",
        # branch bookkeeping
        "mispredicted", "resolution_pending", "resolved",
        # wakeup gating (AccessDelay/ProtDelay and ProtTrack fallbacks)
        "wakeup_pending",
        # scheduler bookkeeping
        "unready_count", "in_iq", "bp_snapshot", "bp_index",
        # defense annotations
        "yrot", "predicted_no_access", "actual_access",
        # observability: why the scheduler last refused this uop, and
        # which hierarchy level serviced its memory access
        "block_reason", "mem_level",
        # timestamps
        "fetch_cycle", "rename_cycle", "issue_cycle", "complete_cycle",
        "commit_cycle", "squash_cycle",
        # open defense-intervention episodes (-1 = none): the cycle the
        # hook first refused this uop, cleared when the hook allows it
        "exec_block_cycle", "resolve_block_cycle", "wakeup_block_cycle",
        # compiled-kernel wake condition of a refused (parked) uop: the
        # ROB-head seq and event epoch at which its refusal can flip,
        # its park kind, and a cycle bound (a busy divider); ``wpark_*``
        # is the separate condition of a refused wakeup, which can
        # coexist with a pending resolution (RET).  Written when the
        # uop is parked and only read while it is, so never initialized.
        "park_seq", "park_epoch", "park_kind", "park_cycle",
        "wpark_seq", "wpark_epoch",
    )

    def __init__(self, seq: int, pc: int, inst: Instruction,
                 predicted_next: int, fetch_cycle: int) -> None:
        self.seq = seq
        self.pc = pc
        self.inst = inst
        self.predicted_next = predicted_next
        self.is_branch: bool = inst.is_branch
        self.is_load: bool = inst.is_load
        self.is_store: bool = inst.is_store

        self.psrcs: Tuple[Tuple[int, int], ...] = ()
        self.pdests: Tuple[Tuple[int, int], ...] = ()
        self.old_pdests: Tuple[Tuple[int, int], ...] = ()
        self.exec_sensitive: Optional[Tuple[int, ...]] = None
        self.resolve_sensitive: Optional[Tuple[int, ...]] = None

        self.in_rob = False
        self.issued = False
        self.executed = False
        self.completed = False
        self.committed = False
        self.squashed = False

        self.result_values: Tuple[Tuple[int, int], ...] = ()
        self.actual_next: Optional[int] = None
        self.taken: Optional[bool] = None
        self.mem_addr: Optional[int] = None
        self.mem_value: Optional[int] = None
        self.store_data: Optional[int] = None
        self.forwarded_from: Optional["Uop"] = None

        self.lsq_prot: Optional[bool] = None

        self.mispredicted = False
        self.resolution_pending = False
        self.resolved = False

        self.wakeup_pending = False

        self.unready_count = 0
        self.in_iq = False
        self.bp_snapshot = None
        self.bp_index = None

        self.yrot: Optional[int] = None
        self.predicted_no_access = False
        self.actual_access: Optional[bool] = None

        self.block_reason: Optional[str] = None
        self.mem_level: Optional[str] = None

        self.fetch_cycle = fetch_cycle
        self.rename_cycle = -1
        self.issue_cycle = -1
        self.complete_cycle = -1
        self.commit_cycle = -1
        self.squash_cycle = -1
        self.exec_block_cycle = -1
        self.resolve_block_cycle = -1
        self.wakeup_block_cycle = -1

    # ------------------------------------------------------------------

    def __lt__(self, other: "Uop") -> bool:
        # Program (rename) order: lets uop lists sort without a key.
        return self.seq < other.seq

    def phys_for(self, arch_reg: int) -> Optional[int]:
        """Physical register holding this uop's read of ``arch_reg``."""
        for areg, preg in self.psrcs:
            if areg == arch_reg:
                return preg
        return None

    def timing_observation(self) -> Tuple[int, int, int, int, int, int]:
        """Per-stage timing exposed to the timing adversary."""
        return (self.pc, self.fetch_cycle, self.rename_cycle,
                self.issue_cycle, self.complete_cycle, self.commit_cycle)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        from ..isa.assembler import format_instruction

        state = ("committed" if self.committed else
                 "squashed" if self.squashed else
                 "completed" if self.completed else
                 "issued" if self.issued else "waiting")
        return (f"Uop(seq={self.seq}, pc={self.pc}, "
                f"{format_instruction(self.inst)!r}, {state})")
