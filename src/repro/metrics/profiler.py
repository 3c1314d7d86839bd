"""Host-side profiling: where does simulator wall time actually go?

``repro profile <workload>`` wraps one simulation in :mod:`cProfile`
and aggregates the flat profile by *simulator subsystem* — pipeline
stages, caches, defense hooks, ISA semantics — via a module-to-
subsystem map, so "make the hot path faster" work starts from a
breakdown in the simulator's own vocabulary instead of a wall of
function names.

Because the subsystem map partitions every profiled function (generated
compiled-engine kernels land in ``compiled-pipeline``, unmatched frames
in ``host-runtime``), the per-subsystem times sum exactly
to the profile's total internal time — asserted by the test suite, so
the breakdown can never silently drop a hot spot.

Two outputs:

* :meth:`ProfileReport.render` — per-subsystem table plus the top-N
  functions by internal time;
* :meth:`ProfileReport.write_collapsed` — ``subsystem;function count``
  collapsed-stack lines (counts in microseconds of internal time),
  directly consumable by flamegraph tools (``flamegraph.pl``,
  speedscope, inferno).
"""

from __future__ import annotations

import cProfile
import pathlib
import pstats
from dataclasses import dataclass, field
from typing import Dict, List, Tuple, Union

#: First match wins: (path fragment under ``src/repro/``, subsystem).
SUBSYSTEM_RULES: Tuple[Tuple[str, str], ...] = (
    ("uarch/pipeline", "pipeline"),
    ("uarch/caches", "caches"),
    ("uarch/branch_predictor", "branch-predictor"),
    ("uarch/structures", "rob-iq-lsq"),
    ("uarch/trace", "tracing"),
    ("uarch/", "uarch-other"),
    ("defenses/", "defense-hooks"),
    ("protisa/", "protisa-tags"),
    ("arch/", "arch-semantics"),
    ("isa/", "isa"),
    ("protcc/", "protcc"),
    ("contracts/", "contracts"),
    ("fuzzing/", "fuzzing"),
    ("workloads/", "workloads"),
    ("forensics/", "forensics"),
    ("metrics/", "metrics"),
    ("bench/", "bench-harness"),
)

#: Catch-all for frames outside ``src/repro`` (stdlib, builtins).
HOST_SUBSYSTEM = "host-runtime"

#: Frames of the compiled engine's generated kernels.
COMPILED_SUBSYSTEM = "compiled-pipeline"


def classify_module(filename: str) -> str:
    """Map a profiled frame's filename to its simulator subsystem."""
    from ..uarch.compiled import KERNEL_FILENAME_PREFIX

    if filename.startswith(KERNEL_FILENAME_PREFIX):
        return COMPILED_SUBSYSTEM
    path = filename.replace("\\", "/")
    marker = "/repro/"
    index = path.rfind(marker)
    if index < 0:
        return HOST_SUBSYSTEM
    relative = path[index + len(marker):]
    for fragment, subsystem in SUBSYSTEM_RULES:
        if relative.startswith(fragment):
            return subsystem
    return "repro-other"


@dataclass
class ProfileEntry:
    """One profiled function, already classified."""

    subsystem: str
    function: str          # "module.py:line(name)"
    calls: int
    internal_s: float      # tottime: time in the frame itself
    cumulative_s: float    # ct: including callees


@dataclass
class ProfileReport:
    """Aggregated outcome of one profiled simulation."""

    label: str
    cycles: int
    total_s: float                     # sum of every frame's tottime
    subsystems: Dict[str, float] = field(default_factory=dict)
    subsystem_calls: Dict[str, int] = field(default_factory=dict)
    entries: List[ProfileEntry] = field(default_factory=list)

    @property
    def sim_cycles_per_sec(self) -> float:
        return self.cycles / self.total_s if self.total_s else 0.0

    def top(self, n: int = 15) -> List[ProfileEntry]:
        return sorted(self.entries, key=lambda e: -e.internal_s)[:n]

    def render(self, top_n: int = 15) -> str:
        from ..bench.runner import render_table

        rows = [[name, f"{seconds:.3f}",
                 f"{100 * seconds / self.total_s:.1f}%" if self.total_s
                 else "-",
                 self.subsystem_calls.get(name, 0)]
                for name, seconds in sorted(self.subsystems.items(),
                                            key=lambda kv: -kv[1])
                if seconds > 0 or self.subsystem_calls.get(name, 0)]
        lines = [
            f"profile: {self.label} — {self.cycles} sim cycles in "
            f"{self.total_s:.3f}s host time "
            f"({self.sim_cycles_per_sec:,.0f} cycles/s)",
            "",
            render_table("host time by subsystem",
                         ["subsystem", "seconds", "share", "calls"], rows),
            "",
            render_table(
                f"top {top_n} functions by internal time",
                ["subsystem", "function", "calls", "internal_s", "cum_s"],
                [[e.subsystem, e.function, e.calls,
                  f"{e.internal_s:.3f}", f"{e.cumulative_s:.3f}"]
                 for e in self.top(top_n)]),
        ]
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        return {
            "label": self.label,
            "cycles": self.cycles,
            "total_s": self.total_s,
            "sim_cycles_per_sec": self.sim_cycles_per_sec,
            "subsystems": dict(sorted(self.subsystems.items())),
            "top": [{"subsystem": e.subsystem, "function": e.function,
                     "calls": e.calls, "internal_s": e.internal_s,
                     "cumulative_s": e.cumulative_s}
                    for e in self.top()],
        }

    def collapsed_stacks(self) -> List[str]:
        """``subsystem;function <microseconds>`` lines, one per frame.

        cProfile records a call *graph*, not full stacks, so the frames
        collapse under their subsystem rather than their true caller
        chain — coarse, but exact in where the time went, and every
        flamegraph tool renders it directly.
        """
        lines = []
        for entry in sorted(self.entries,
                            key=lambda e: (e.subsystem, e.function)):
            micros = int(round(entry.internal_s * 1e6))
            if micros <= 0:
                continue
            frame = entry.function.replace(";", ":").replace(" ", "_")
            lines.append(f"{entry.subsystem};{frame} {micros}")
        return lines

    def write_collapsed(self, path: Union[str, pathlib.Path]
                        ) -> pathlib.Path:
        path = pathlib.Path(path)
        path.write_text("\n".join(self.collapsed_stacks()) + "\n")
        return path


def profile_spec(spec, top_n: int = 15) -> ProfileReport:
    """Profile one :class:`~repro.bench.runner.RunSpec` simulation."""
    from ..bench.runner import execute_spec

    profile = cProfile.Profile()
    profile.enable()
    try:
        result = execute_spec(spec)
    finally:
        profile.disable()
    report = report_from_stats(pstats.Stats(profile),
                               label=f"{spec.workload} "
                                     f"defense={spec.defense} "
                                     f"core={spec.core}",
                               cycles=result.cycles)
    return report


def report_from_stats(stats: pstats.Stats, label: str,
                      cycles: int = 0) -> ProfileReport:
    """Aggregate a :class:`pstats.Stats` flat profile by subsystem."""
    report = ProfileReport(label=label, cycles=cycles, total_s=0.0)
    for (filename, lineno, funcname), row in stats.stats.items():
        _, ncalls, tottime, cumtime, _callers = row
        subsystem = classify_module(filename)
        short = pathlib.PurePath(filename).name
        function = (f"{short}:{lineno}({funcname})"
                    if short != "~" else f"<built-in>({funcname})")
        report.entries.append(ProfileEntry(
            subsystem=subsystem, function=function, calls=ncalls,
            internal_s=tottime, cumulative_s=cumtime))
        report.subsystems[subsystem] = \
            report.subsystems.get(subsystem, 0.0) + tottime
        report.subsystem_calls[subsystem] = \
            report.subsystem_calls.get(subsystem, 0) + ncalls
        report.total_s += tottime
    return report
