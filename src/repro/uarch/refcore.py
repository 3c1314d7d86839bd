"""Lockstep differential harness: the fast-path proof layer.

The simulator's hot loop (``repro.uarch.pipeline.Core``) carries
several fast paths — idle-cycle fast-forwarding, refusal caches with
head-seq invalidation barriers, memoized decode metadata.  All of them
are *observational no-ops by construction*, and this module is the
construction's proof obligation: run the same simulation twice, once
with every fast path enabled and once on :class:`ReferenceCore` (the
plain engine with ``fast_path=False``), and assert the two
:class:`~repro.uarch.pipeline.CoreResult` outcomes are identical down
to every cycle count, stat counter, timing-trace entry, and adversary
cache line.

Since the compiled backend (:mod:`repro.uarch.compiled`) landed, the
harness is *three-way*: refcore vs the fast-path interpreter vs the
compiled specialization, every non-reference engine diffed against
:class:`ReferenceCore` independently.

Entry points:

* :func:`run_pair` / :func:`assert_identical` — one differential run.
* :func:`run_engines` — one case across an arbitrary engine subset,
  every engine diffed against the reference.
* :func:`compare_results` — the field-by-field :class:`DiffReport`.
* :func:`diff_cases` / :func:`run_case` — the randomized-program grid
  over every defense x ProtCC class x core config in the paper's
  Tables II/III, used by ``repro diff`` and the test suite.
* :func:`fixture_cases` — the security fixtures (Spectre v1, divider
  channel, squash-notification bug) under their signature configs.
* :func:`fuzz_cell_cases` — the fuzzing hot spot: the seed-7 campaign's
  ``rand``-instrumented programs on their UNPROT-SEQ input pairs under
  the protected defenses, both speculation models, both cores.
* :func:`multicore_cases` / :func:`run_multicore_engines` — the
  data-parallel ``.mt`` programs on :class:`~repro.uarch.multicore.MultiCore`,
  every thread of the compiled lockstep driver diffed against the
  stepped reference cores.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .config import CoreConfig, E_CORE, P_CORE, SpeculationModel
from .pipeline import (
    Core,
    CoreResult,
    DEFAULT_MAX_CYCLES,
    DEFAULT_NO_PROGRESS_LIMIT,
    simulate,
)


class ReferenceCore(Core):
    """The reference engine: a :class:`Core` with every fast path
    pinned off, regardless of environment or constructor arguments.

    This is what the differential harness trusts: the straight-line
    cycle loop with no fast-forwarding and no refusal caches.  Keep it
    boring — any optimization added here would need its own proof.
    """

    def __init__(self, *args, **kwargs) -> None:
        kwargs["fast_path"] = False
        super().__init__(*args, **kwargs)


#: CoreResult fields the harness compares, in report order.  ``memory``
#: is excluded only because a sparse image diff is unreadable; the
#: committed-access stream and final registers pin the same behaviour.
COMPARED_FIELDS: Tuple[str, ...] = (
    "cycles", "halt_reason", "committed_pcs", "final_regs",
    "timing_trace", "adversary_cache_state", "committed_accesses",
    "stats",
)

#: Speculation-observatory stats keys every engine must emit.  The
#: stats dicts are compared in full anyway; this list exists so the
#: telemetry-parity assertion can never pass *vacuously* — an engine
#: that silently stopped emitting a counter (both sides missing) would
#: otherwise still compare equal.
REQUIRED_TELEMETRY: Tuple[str, ...] = (
    "fetched_uops", "issued_uops", "squashes",
    "squashes_conditional", "squashes_indirect", "squashes_return",
    "spec_depth_le_1", "spec_depth_gt_32",
    "squash_cascade_le_1", "squash_cascade_gt_32",
    "defense_exec_interventions", "defense_exec_delay_cycles",
    "defense_resolve_interventions", "defense_resolve_delay_cycles",
    "defense_wakeup_interventions", "defense_wakeup_delay_cycles",
)


@dataclass(frozen=True)
class FieldDiff:
    """One observable that differed between the two engines."""

    field: str
    fast: object
    ref: object

    def render(self, limit: int = 72) -> str:
        fast, ref = str(self.fast), str(self.ref)
        if len(fast) > limit:
            fast = fast[:limit] + "..."
        if len(ref) > limit:
            ref = ref[:limit] + "..."
        return f"{self.field}: fast={fast} ref={ref}"


@dataclass
class DiffReport:
    """Outcome of one fast-vs-reference comparison."""

    label: str
    diffs: List[FieldDiff] = field(default_factory=list)

    @property
    def identical(self) -> bool:
        return not self.diffs

    def render(self) -> str:
        if self.identical:
            return f"{self.label}: identical"
        lines = [f"{self.label}: {len(self.diffs)} field(s) diverge"]
        lines += ["  " + diff.render() for diff in self.diffs]
        return "\n".join(lines)

    def raise_if_different(self) -> None:
        if not self.identical:
            raise AssertionError(
                "fast path diverged from the reference engine\n"
                + self.render())


def compare_results(fast: CoreResult, ref: CoreResult,
                    label: str = "diff") -> DiffReport:
    """Field-by-field comparison; stats diffs are reported per key."""
    report = DiffReport(label=label)
    for name in COMPARED_FIELDS:
        a, b = getattr(fast, name), getattr(ref, name)
        if a == b:
            continue
        if name == "stats":
            for key in sorted(set(a) | set(b)):
                if a.get(key) != b.get(key):
                    report.diffs.append(FieldDiff(
                        f"stats[{key}]", a.get(key), b.get(key)))
        elif isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
            if len(a) != len(b):
                report.diffs.append(FieldDiff(
                    f"len({name})", len(a), len(b)))
            for index, (x, y) in enumerate(zip(a, b)):
                if x != y:
                    report.diffs.append(FieldDiff(
                        f"{name}[{index}]", x, y))
                    break  # first divergence point is the useful one
        else:
            report.diffs.append(FieldDiff(name, a, b))
    for key in REQUIRED_TELEMETRY:
        if key not in fast.stats or key not in ref.stats:
            report.diffs.append(FieldDiff(
                f"stats[{key}] present", key in fast.stats,
                key in ref.stats))
    if fast.memory != ref.memory:
        report.diffs.append(FieldDiff("memory", "<image>", "<differs>"))
    return report


def run_pair(program, defense_factory: Callable[[], object],
             config: CoreConfig = P_CORE,
             memory_factory: Optional[Callable[[], object]] = None,
             regs: Optional[Dict[int, int]] = None,
             max_cycles: int = DEFAULT_MAX_CYCLES,
             no_progress_limit: Optional[int] = DEFAULT_NO_PROGRESS_LIMIT,
             label: str = "diff",
             ) -> Tuple[CoreResult, CoreResult, DiffReport]:
    """Run ``program`` on both engines and diff the outcomes.

    ``defense_factory`` (not an instance: defenses carry state) is
    called once per engine; likewise ``memory_factory`` when the
    program needs an initial memory image.
    """
    def once(fast: bool) -> CoreResult:
        memory = memory_factory() if memory_factory is not None else None
        return simulate(program, defense_factory(), config,
                        memory=memory, regs=dict(regs) if regs else None,
                        max_cycles=max_cycles, fast_path=fast,
                        no_progress_limit=no_progress_limit)

    fast_result = once(True)
    ref_result = once(False)
    return fast_result, ref_result, compare_results(
        fast_result, ref_result, label=label)


def assert_identical(program, defense_factory, config: CoreConfig = P_CORE,
                     **kwargs) -> CoreResult:
    """Differential run that raises on any divergence; returns the
    (verified) fast-path result."""
    fast_result, _, report = run_pair(program, defense_factory, config,
                                      **kwargs)
    report.raise_if_different()
    return fast_result


#: Engines the three-way sweep compares (the first is the reference
#: every other engine is diffed against).
DEFAULT_ENGINES: Tuple[str, ...] = ("refcore", "fast", "compiled")


def parse_engines(spec: str) -> Tuple[str, ...]:
    """Parse a ``--engines refcore,fast,compiled`` CLI value."""
    engines = tuple(name.strip() for name in spec.split(",") if name.strip())
    if not engines:
        raise ValueError("no engines given")
    for name in engines:
        if name not in DEFAULT_ENGINES:
            raise ValueError(
                f"unknown engine {name!r}; expected a subset of "
                f"{','.join(DEFAULT_ENGINES)}")
    if len(engines) < 2 and engines != ("refcore",):
        raise ValueError("need at least two engines to diff "
                         "(or just 'refcore' to only exercise the "
                         "reference)")
    return engines


def run_engines(program, defense_factory: Callable[[], object],
                config: CoreConfig = P_CORE,
                memory_factory: Optional[Callable[[], object]] = None,
                regs: Optional[Dict[int, int]] = None,
                max_cycles: int = DEFAULT_MAX_CYCLES,
                no_progress_limit: Optional[int] = DEFAULT_NO_PROGRESS_LIMIT,
                engines: Tuple[str, ...] = DEFAULT_ENGINES,
                label: str = "diff",
                ) -> Tuple[Dict[str, CoreResult], DiffReport]:
    """Run one case on every engine in ``engines`` and diff each
    non-reference engine against the first (reference) one.

    Divergent fields are reported as ``engine:field`` so a three-way
    report pinpoints *which* engine broke cycle-identity.
    """
    results: Dict[str, CoreResult] = {}
    for engine in engines:
        memory = memory_factory() if memory_factory is not None else None
        results[engine] = simulate(
            program, defense_factory(), config, memory=memory,
            regs=dict(regs) if regs else None, max_cycles=max_cycles,
            no_progress_limit=no_progress_limit, engine=engine)
    report = DiffReport(label=label)
    reference = engines[0]
    for engine in engines[1:]:
        sub = compare_results(results[engine], results[reference],
                              label=label)
        for diff in sub.diffs:
            report.diffs.append(FieldDiff(
                f"{engine}:{diff.field}", diff.fast, diff.ref))
    return results, report


# ---------------------------------------------------------------------
# The randomized grid: Tables II/III coverage.
# ---------------------------------------------------------------------

#: ProtCC instrumentation classes from the paper's Table II fuzzing
#: grid ("rand" random-prefixes; the rest are the vulnerable-code
#: classes of Table III).
INSTRUMENTS: Tuple[str, ...] = ("rand", "arch", "cts", "ct", "unr")

CORE_CONFIGS: Dict[str, CoreConfig] = {"P": P_CORE, "E": E_CORE}


@dataclass(frozen=True)
class DiffCase:
    """One cell of the differential grid (hashable, reproducible)."""

    defense: str
    instrument: str
    core: str
    seed: int

    @property
    def label(self) -> str:
        return (f"{self.defense}/{self.instrument}/{self.core}"
                f"/seed{self.seed}")

    def config(self) -> CoreConfig:
        config = CORE_CONFIGS[self.core]
        # Rotate the speculation model and the squash-notification bug
        # with the seed so the grid also sweeps the Table III hardware
        # variants without multiplying the case count.
        if self.seed % 3 == 1:
            config = config.replace(
                speculation_model=SpeculationModel.CONTROL)
        if self.seed % 4 == 2:
            config = config.replace(buggy_squash_notify=True)
        return config


def diff_cases(programs: int = 3, seed: int = 0,
               defenses: Optional[Tuple[str, ...]] = None,
               instruments: Tuple[str, ...] = INSTRUMENTS,
               cores: Tuple[str, ...] = ("P", "E"),
               ) -> Iterator[DiffCase]:
    """Enumerate the grid: every defense x instrumentation x core,
    ``programs`` seeded random programs per cell."""
    from ..bench.runner import DEFENSES

    names = defenses if defenses is not None else tuple(DEFENSES)
    for defense in names:
        for instrument in instruments:
            for core in cores:
                for index in range(programs):
                    yield DiffCase(defense, instrument, core,
                                   seed + index)


def run_case(case: DiffCase, program_size: int = 40,
             engines: Tuple[str, ...] = DEFAULT_ENGINES) -> DiffReport:
    """Run one grid cell: generate, instrument, simulate differentially
    across ``engines`` (three-way by default)."""
    from ..bench.runner import DEFENSES
    from ..fuzzing.generator import generate_program
    from ..fuzzing.inputs import generate_input
    from ..protcc import compile_program

    program = generate_program(case.seed, program_size)
    compiled = compile_program(
        program, case.instrument,
        rng=random.Random(case.seed ^ 0xC0DE)).program
    test_input = generate_input(random.Random(case.seed ^ 0xF00D))
    _, report = run_engines(
        compiled, DEFENSES[case.defense], case.config(),
        memory_factory=test_input.build_memory,
        regs=test_input.build_regs(), engines=engines, label=case.label)
    return report


def fixture_cases(engines: Tuple[str, ...] = DEFAULT_ENGINES,
                  ) -> Iterator[Tuple[str, DiffReport]]:
    """Differential runs of the security fixtures under the hardware
    configs that make each one interesting."""
    from ..bench.runner import DEFENSES
    from ..fixtures import FIXTURES, build

    configs = {
        "v1-gadget": P_CORE,
        "div-channel": P_CORE.replace(div_is_transmitter=True),
        "squash-bug": P_CORE.replace(buggy_squash_notify=True),
    }
    for name, fixture in FIXTURES.items():
        config = configs.get(name, P_CORE)
        for defense in ("unsafe", "track", "delay", "spt-sb"):
            label = f"fixture:{name}/{defense}"
            program, _ = build(name)
            _, report = run_engines(
                program, DEFENSES[defense], config,
                memory_factory=lambda n=name: build(n)[1],
                engines=engines, label=label)
            yield label, report


#: Defenses of the fuzz-cell differential cases: every mechanism whose
#: refusals the engines park and replay.
FUZZ_CELL_DEFENSES: Tuple[str, ...] = ("track", "delay", "stt", "spt",
                                       "spt-sb")


def fuzz_cell_cases(programs: int = 3,
                    engines: Tuple[str, ...] = DEFAULT_ENGINES,
                    defenses: Tuple[str, ...] = FUZZ_CELL_DEFENSES,
                    cores: Tuple[str, ...] = ("P", "E"),
                    ) -> Iterator[Tuple[str, DiffReport]]:
    """Differential runs of the fuzz cell ``repro fuzz --defense track
    --seed 7`` exercises: the campaign's first ``programs`` 40-instruction
    programs, ``rand``-instrumented, each run on both inputs of its
    first UNPROT-SEQ test pair (base and mutated, drawn exactly as the
    campaign draws them) under every defense x speculation model x
    core.  These are the runs where defense refusals dominate, so they
    are where parked-refusal replay must stay cycle-exact."""
    from ..bench.runner import DEFENSES
    from ..fuzzing.campaign import program_seeds
    from ..fuzzing.generator import generate_program
    from ..fuzzing.inputs import generate_input, mutate_input
    from ..protcc import compile_program

    for program_seed in program_seeds(7, programs):
        binary = compile_program(
            generate_program(program_seed, 40), "rand",
            rng=random.Random(program_seed ^ 0xC0DE)).program
        input_rng = random.Random(program_seed ^ 0xF00D)
        base = generate_input(input_rng)
        pair = (("base", base),
                ("mutated", mutate_input(input_rng, base,
                                         public_flips=False)))
        for defense in defenses:
            for model in (SpeculationModel.ATCOMMIT,
                          SpeculationModel.CONTROL):
                for core in cores:
                    config = CORE_CONFIGS[core].replace(
                        speculation_model=model)
                    for name, test_input in pair:
                        label = (f"fuzz-cell:{program_seed}/{defense}/"
                                 f"{model.value}/{core}/{name}")
                        _, report = run_engines(
                            binary, DEFENSES[defense], config,
                            memory_factory=test_input.build_memory,
                            regs=test_input.build_regs(),
                            engines=engines, label=label)
                        yield label, report


def mitigation_cases(engines: Tuple[str, ...] = DEFAULT_ENGINES,
                     seed: int = 0,
                     ) -> Iterator[Tuple[str, DiffReport]]:
    """Differential runs of software-mitigated binaries under the
    ``Unsafe`` hardware defense: each registered pass applied to the
    security fixtures and to one seeded generated program, across every
    engine.  Proves the mitigation passes' output (fences, poison
    threading, masked loads) executes identically on all backends."""
    from ..bench.runner import DEFENSES
    from ..fixtures import FIXTURES, build
    from ..fuzzing.generator import generate_program
    from ..fuzzing.inputs import generate_input
    from ..protcc import MITIGATIONS, mitigate_program

    test_input = generate_input(random.Random(seed ^ 0xF00D))
    generated = generate_program(seed, 40)
    for mitigation in MITIGATIONS:
        for name in FIXTURES:
            label = f"mitigation:{name}/{mitigation}"
            program, _ = build(name)
            mitigated = mitigate_program(program, mitigation).program
            _, report = run_engines(
                mitigated, DEFENSES["unsafe"], P_CORE,
                memory_factory=lambda n=name: build(n)[1],
                engines=engines, label=label)
            yield label, report
        label = f"mitigation:generated-seed{seed}/{mitigation}"
        mitigated = mitigate_program(generated, mitigation).program
        _, report = run_engines(
            mitigated, DEFENSES["unsafe"], P_CORE,
            memory_factory=test_input.build_memory,
            regs=test_input.build_regs(),
            engines=engines, label=label)
        yield label, report


# ---------------------------------------------------------------------
# Multi-core: the compiled lockstep driver against stepped cores.
# ---------------------------------------------------------------------

#: Data-parallel programs of the multicore differential cases.
MULTICORE_PROGRAMS: Tuple[str, ...] = ("blackscholes.mt", "swaptions.mt",
                                       "canneal.mt")

#: (defense, ProtCC instrumentation or None) of the multicore cases.
MULTICORE_DEFENSES: Tuple[Tuple[str, Optional[str]], ...] = (
    ("unsafe", None), ("stt", None), ("spt-sb", None), ("delay", "unr"),
    ("track", "unr"))

#: Thread mixes of a 4-thread run: name -> number of P-cores.
THREAD_MIXES: Dict[str, int] = {"2P+2E": 2, "1P+3E": 1}


def run_multicore_engines(program, defense_factory: Callable[[], object],
                          memory=None,
                          regs: Optional[Dict[int, int]] = None,
                          p_cores: int = 2,
                          engines: Tuple[str, ...] = DEFAULT_ENGINES,
                          label: str = "multicore",
                          ) -> Tuple[Dict[str, object], DiffReport]:
    """Run one 4-thread :class:`~repro.uarch.multicore.MultiCore` case
    on every engine in ``engines`` and diff each against the first:
    every thread's :class:`CoreResult` (reported as
    ``engine:t<tid>:field``; each carries its halt reason and the shared
    memory image) plus the invalidation count.  Returns each engine's
    ``MultiCore`` (run) and the report."""
    from .multicore import MultiCore

    runs: Dict[str, object] = {}
    for engine in engines:
        runs[engine] = MultiCore(program, defense_factory, memory,
                                 threads=4, p_cores=p_cores, regs=regs,
                                 engine=engine)
        runs[engine].run()
    report = DiffReport(label=label)
    ref = runs[engines[0]]
    for engine in engines[1:]:
        got = runs[engine]
        for tid, (mine, theirs) in enumerate(zip(got.cores, ref.cores)):
            for diff in compare_results(mine._result(),
                                        theirs._result()).diffs:
                report.diffs.append(FieldDiff(
                    f"{engine}:t{tid}:{diff.field}", diff.fast, diff.ref))
        if got.invalidations != ref.invalidations:
            report.diffs.append(FieldDiff(
                f"{engine}:invalidations", got.invalidations,
                ref.invalidations))
    return runs, report


def multicore_cases(engines: Tuple[str, ...] = DEFAULT_ENGINES,
                    programs: Tuple[str, ...] = MULTICORE_PROGRAMS,
                    defenses: Optional[Tuple[str, ...]] = None,
                    mixes: Tuple[str, ...] = tuple(THREAD_MIXES),
                    ) -> Iterator[Tuple[str, DiffReport]]:
    """Differential runs of the ``.mt`` programs, 4 threads, under
    every :data:`MULTICORE_DEFENSES` entry (``defenses`` filters by
    defense name) and thread mix, on the workload's own memory image."""
    from ..bench.runner import DEFENSES, compiled
    from ..workloads import get_workload

    for name in programs:
        workload = get_workload(name)
        for defense, instrument in MULTICORE_DEFENSES:
            if defenses is not None and defense not in defenses:
                continue
            program = workload.program if instrument is None \
                else compiled(name, instrument).program
            for mix in mixes:
                label = (f"multicore:{name}/{defense}"
                         + (f"+{instrument}" if instrument else "")
                         + f"/{mix}")
                _, report = run_multicore_engines(
                    program, DEFENSES[defense], workload.memory,
                    workload.regs, p_cores=THREAD_MIXES[mix],
                    engines=engines, label=label)
                yield label, report
