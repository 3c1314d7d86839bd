"""The benchmark's four workloads.

Each workload builds its inputs from the seed in ``setup`` and then runs
*rounds*.  A round is one fixed batch of ops; the runner starts every
round cold (a fresh result/artifact cache directory and cleared
in-process caches).  The number of rounds depends only on ``--seconds``.

The seed varies what a workload can vary without changing how much work
a run holds: the fuzz test inputs, the parsec-mt shard data, and the
order in which sweep and dispatch submit their specs.  The programs and
the (workload, defense) matrix slice are fixed, because drawing them
from the seed made host time per run differ by a fifth between seeds
(fuzz programs alone vary 0.55-2.7 s each), far more than any change
the benchmark must resolve.

``run_round`` times the ops only; the oracle checks each op against the
sequential reference machine outside the timed phase.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.arch import run_program
from repro.arch.executor import STACK_TOP
from repro.arch.memory import Memory
from repro.bench import runner
from repro.bench.executor import program_fingerprint, run_batch
from repro.bench.runner import DEFENSES, RunSpec, execute_spec
from repro.contracts.checker import Contract, Verdict
from repro.fuzzing import campaign
from repro.fuzzing.campaign import CampaignConfig, run_campaign
from repro.protcc import MitigationError, mitigate_program
from repro.uarch.config import E_CORE, P_CORE
from repro.uarch.multicore import STACK_STRIDE, TID_REG, MultiCore
from repro.workloads import get_workload, workload_names
from repro.workloads.base import DATA_BASE, fill_words, lcg_values
from repro.workloads.parsec_mt import (COUNTERS_BASE, MAX_THREADS,
                                       SHARD_WORDS)

from . import oracle

_clock = time.perf_counter


@dataclass
class Op:
    ident: str
    latency_s: float
    #: Simulated core-cycles the op ran (0 when not visible to the
    #: benchmark process, e.g. inside a campaign worker).
    cycles: int
    engine: str
    problems: List[str] = field(default_factory=list)


@dataclass
class Round:
    ops: List[Op]
    wall_s: float
    #: Traced-run-only layer measurements (pool vs serial seconds).
    layers: Dict[str, float] = field(default_factory=dict)


class Model:
    """Modelled-design counts summed over every simulation of a run."""

    def __init__(self) -> None:
        self.cycles = 0
        self.committed = 0
        self.fetched = 0
        self.squashed = 0
        self.slots = 0
        self.stall_defense = 0
        self.refusals = 0
        self.interventions = 0

    def add(self, stats: Dict[str, int], cycles: int, width: int) -> None:
        self.cycles += cycles
        self.committed += stats["committed_uops"]
        self.fetched += stats["fetched_uops"]
        self.squashed += stats["squashed_uops"]
        self.slots += width * cycles
        self.stall_defense += sum(v for k, v in stats.items()
                                  if k.startswith("stall_defense"))
        self.refusals += (stats.get("defense_delayed_transmitters", 0)
                          + stats.get("defense_delayed_resolutions", 0)
                          + stats.get("defense_delayed_wakeups", 0))
        self.interventions += (stats.get("defense_exec_interventions", 0)
                               + stats.get("defense_resolve_interventions", 0)
                               + stats.get("defense_wakeup_interventions", 0))


def _derive(seed: int, *labels) -> random.Random:
    return random.Random(repr((seed,) + labels))


def _failed(ident: str, latency: float, exc: Exception) -> Op:
    return Op(ident, latency, 0, "none", [f"{type(exc).__name__}: {exc}"])


def _binary(spec: RunSpec):
    """The program ``execute_spec`` simulates for ``spec``."""
    if spec.mitigation is not None:
        return runner.mitigated(spec.workload, spec.instrument,
                                spec.mitigation)
    if spec.instrument is None:
        return get_workload(spec.workload).program
    return runner.compiled(spec.workload, spec.instrument).program


class _Reference:
    """Sequential reference runs, memoised per binary for the run."""

    def __init__(self) -> None:
        self._runs = {}

    def run(self, program, memory=None, regs=None) -> oracle.Reference:
        key = (program_fingerprint(program), id(memory), repr(regs))
        if key not in self._runs:
            self._runs[key] = oracle.Reference.of(
                run_program(program, memory, regs))
        return self._runs[key]


class Workload:
    name = ""
    #: About the host seconds of one round on a 2-vCPU host.  The round
    #: count is ``round(seconds / nominal_round_s)``, at least 1, so it
    #: depends on ``--seconds`` only and a seed always runs the same ops.
    nominal_round_s = 1.0
    #: Worker processes the workload's pools use.
    jobs = 1

    def rounds(self, seconds: float) -> int:
        return max(1, round(seconds / self.nominal_round_s))

    def setup(self, seed: int, rounds: int) -> None:
        raise NotImplementedError

    def run_round(self, index: int, probe, digest: oracle.Digest,
                  model: Model, reset: Callable[[], None]) -> Round:
        raise NotImplementedError

    def finish(self) -> List[str]:
        """Run-level oracle problems (after every round)."""
        return []

    def notes(self) -> List[str]:
        """Lines the report prints about this run's inputs."""
        return []


class Sweep(Workload):
    """The paper matrix, serially, on the default (compiled) engine:
    few programs and long runs, so the simulation loop dominates and
    codegen is amortised."""

    name = "sweep"
    nominal_round_s = 15.0
    SUITES = ("spec2017", "arch-wasm", "ct-crypto", "cts-crypto",
              "unr-crypto", "nginx")
    CONFIGS = (("unsafe", None), ("stt", None), ("spt-sb", None),
               ("delay", "auto"), ("track", "auto"))
    PASSES = ("slh", "blade")

    def setup(self, seed: int, rounds: int) -> None:
        self.seed = seed
        self.suites = [workload_names(suite) for suite in self.SUITES]
        self.mitigated: Dict[Tuple[str, str], List[str]] = {}
        self.refused: List[Tuple[str, str, str]] = []
        for suite, names in zip(self.SUITES, self.suites):
            for mitigation in self.PASSES:
                accepted = []
                for name in names:
                    if len(accepted) == rounds:
                        break
                    try:
                        mitigate_program(get_workload(name).program,
                                         mitigation)
                    except MitigationError as exc:
                        self.refused.append((mitigation, name, str(exc)))
                        continue
                    accepted.append(name)
                self.mitigated[(suite, mitigation)] = accepted
        self.reference = _Reference()

    def specs(self, index: int) -> List[RunSpec]:
        """Round ``index``: every workload once, under a defense that
        rotates along each suite and per round, so each defense gets an
        equal share of each suite and five rounds cover the matrix; plus
        each mitigation on the workloads of each suite that accept it,
        one per round.  The seed sets the order."""
        specs = []
        for suite, names in zip(self.SUITES, self.suites):
            for position, name in enumerate(names):
                defense, instrument = self.CONFIGS[
                    (position + index) % len(self.CONFIGS)]
                specs.append(RunSpec(name, defense, instrument))
            for mitigation in self.PASSES:
                accepted = self.mitigated[(suite, mitigation)]
                if accepted:
                    specs.append(RunSpec(accepted[index % len(accepted)],
                                         "unsafe", mitigation=mitigation))
        _derive(self.seed, "sweep", index).shuffle(specs)
        return specs

    def run_round(self, index, probe, digest, model, reset):
        ops = []
        for spec in self.specs(index):
            ident = f"{spec.workload}/{spec.defense}" + (
                f"+{spec.instrument}" if spec.instrument else "") + (
                f"+{spec.mitigation}" if spec.mitigation else "")
            steps = probe.compile_steps
            t0 = _clock()
            try:
                with probe.op(ident):
                    result = execute_spec(spec)
            except Exception as exc:  # noqa: BLE001 - a failed op, reported
                ops.append(_failed(ident, _clock() - t0, exc))
                continue
            latency = _clock() - t0
            engine = "compiled" if probe.compile_steps > steps else "interp"
            op = Op(ident, latency, result.cycles, engine)
            ops.append(op)
            # Checked at once, so no result outlives its op: a growing
            # heap would slow the garbage collector inside later ops.
            workload = get_workload(spec.workload)
            seq = self.reference.run(_binary(spec), workload.memory,
                                     workload.regs)
            width = spec.core_config().width
            op.problems += oracle.core_mismatch(result, seq, width)
            digest.add_stats(op.ident, result.cycles, result.stats)
            model.add(result.stats, result.cycles, width)
        return Round(ops, sum(op.latency_s for op in ops))

    def notes(self):
        lines = [f"mitigation {m} refused on {n}: {why}"
                 for m, n, why in self.refused]
        for (suite, mitigation), accepted in self.mitigated.items():
            if not accepted:
                lines.append(f"mitigation {mitigation}: no {suite} workload "
                             f"accepts it; no {suite}+{mitigation} spec")
        return lines


class Fuzz(Workload):
    """The ROADMAP's ProtTrack fuzz cell (UNPROT-SEQ, ``rand``
    instrumentation) plus an unsafe cell on the same programs and
    inputs: many fresh 40-instruction programs and short runs, so
    defense gating and per-program codegen dominate.

    It runs the per-program steps of ``run_campaign(jobs=1)`` --
    ``generate_program``, ``compile_program``, ``generate_input``,
    ``mutate_input`` and ``check_contract_pair``, looked up in the
    campaign module as the campaign does -- because the campaign derives
    a program's inputs from its program seed.  Here the programs come
    from the ROADMAP cell's fixed seed and the inputs from the
    benchmark seed."""

    name = "fuzz"
    nominal_round_s = 5.0
    PROGRAMS = 3
    PAIRS = 4
    SIZE = 40
    #: Master seed of the ROADMAP's fuzz cell (``--seed 7``).
    CORPUS_SEED = 7
    CELLS = ("track", "unsafe")

    def setup(self, seed: int, rounds: int) -> None:
        self.seed = seed
        self.violations = {cell: 0 for cell in self.CELLS}

    def cell(self, defense: str, index: int, probe):
        """One program under one defense: (program seed, verdicts, the
        checks' slice of ``probe.pairs``)."""
        program_seed = _derive(self.CORPUS_SEED, "program", index
                               ).randrange(1 << 30)
        factory = probe.defense_factory(DEFENSES[defense])
        first = len(probe.pairs)
        verdicts = []
        with probe.op(f"{defense}/{program_seed}"):
            program = campaign.generate_program(program_seed, self.SIZE)
            binary = campaign.compile_program(
                program, "rand", rng=random.Random(program_seed ^ 0xC0DE)
            ).program
            inputs = _derive(self.seed, "fuzz-inputs", index)
            base = campaign.generate_input(inputs)
            for pair in range(self.PAIRS):
                mutated = campaign.mutate_input(
                    inputs, base, public_flips=pair % 3 == 2)
                outcome = campaign.check_contract_pair(
                    binary, factory, Contract.UNPROT_SEQ, base, mutated,
                    P_CORE)
                verdicts.append(outcome)
        return program_seed, verdicts, probe.pairs[first:]

    def run_round(self, index, probe, digest, model, reset):
        programs = range(index * self.PROGRAMS, (index + 1) * self.PROGRAMS)
        started = _clock()
        cells = {(defense, i): self.cell(defense, i, probe)
                 for i in programs for defense in self.CELLS}
        wall = _clock() - started

        ops = []
        for i in programs:
            for pair in range(self.PAIRS):
                latency, cycles, engines, problems = 0.0, 0, set(), []
                for defense in self.CELLS:
                    program_seed, verdicts, checks = cells[(defense, i)]
                    outcome = verdicts[pair]
                    pair_s, first, end = checks[pair]
                    latency += pair_s
                    label = f"{defense}/{program_seed}/{pair}"
                    digest.add(label, outcome.verdict.value,
                               outcome.invalid_reason and
                               outcome.invalid_reason.value)
                    for engine, sim_cycles, _, stats in \
                            probe.checker_results[first:end]:
                        engines.add(engine)
                        cycles += sim_cycles
                        digest.add_stats(label, sim_cycles, stats)
                        model.add(stats, sim_cycles, P_CORE.width)
                    if outcome.verdict is Verdict.VIOLATION:
                        self.violations[defense] += 1
                        if defense != "unsafe":
                            problems.append(f"{defense} violation: "
                                            f"{outcome.detail}")
                ops.append(Op(f"{program_seed}/{pair}", latency, cycles,
                              "+".join(sorted(engines)) or "none",
                              problems))
        return Round(ops, wall)

    def finish(self):
        return oracle.fuzz_mismatch(self.violations["track"],
                                    self.violations["unsafe"])

    def notes(self):
        return [f"fuzz cells: ProtTrack {self.violations['track']} "
                f"violations, unsafe {self.violations['unsafe']} violations"]


class ParsecMT(Workload):
    """Data-parallel runs, 4 threads on 2P+2E cores: the compiled engine
    is refused, so the interpreter fast path, the shared L3 and coherence
    dominate.  Each op builds a ``MultiCore`` and runs it, which is all
    ``simulate_mt`` does, so the per-core stats stay readable.  The seed
    draws each round's shard data."""

    name = "parsec-mt"
    nominal_round_s = 10.0
    PROGRAMS = ("blackscholes.mt", "swaptions.mt", "canneal.mt")
    CONFIGS = (("unsafe", None), ("spt-sb", None), ("delay", "unr"),
               ("track", "unr"))
    THREADS = 4
    P_CORES = 2

    def setup(self, seed: int, rounds: int) -> None:
        self.seed = seed
        for name in self.PROGRAMS:
            get_workload(name)
        self.reference = {}

    def memory(self, index: int, name: str) -> Memory:
        """The shard data the workload's own image would hold, drawn
        from the seed instead of the workload's fixed LCG seed."""
        memory = Memory()
        data_seed = _derive(self.seed, "parsec-mt", index, name
                            ).randrange(1 << 31)
        fill_words(memory, DATA_BASE,
                   lcg_values(data_seed, SHARD_WORDS * MAX_THREADS, 512))
        fill_words(memory, COUNTERS_BASE, [0] * MAX_THREADS)
        return memory

    def shards(self, binary, memory: Memory, regs):
        """Every thread's shard run in sequence on one memory image."""
        runs = []
        for tid in range(self.THREADS):
            thread_regs = dict(regs)
            thread_regs[TID_REG] = tid
            thread_regs.setdefault(15, STACK_TOP + tid * STACK_STRIDE)
            seq = run_program(binary, memory, thread_regs)
            runs.append(oracle.Reference.of(seq))
            memory = seq.memory
        return runs, memory

    def run_round(self, index, probe, digest, model, reset):
        ops = []
        for name in self.PROGRAMS:
            workload = get_workload(name)
            memory = self.memory(index, name)
            for defense, instrument in self.CONFIGS:
                ident = f"{name}/{defense}" + (
                    f"+{instrument}" if instrument else "")
                t0 = _clock()
                try:
                    with probe.op(ident):
                        binary = workload.program if instrument is None \
                            else runner.compiled(name, instrument).program
                        core_set = MultiCore(
                            binary, probe.defense_factory(DEFENSES[defense]),
                            memory, threads=self.THREADS,
                            p_cores=self.P_CORES, p_config=P_CORE,
                            e_config=E_CORE, regs=workload.regs)
                        result = probe.multicore_span(
                            core_set.run,
                            lambda r: sum(r.per_thread_cycles))
                except Exception as exc:  # noqa: BLE001 - reported
                    ops.append(_failed(ident, _clock() - t0, exc))
                    continue
                op = Op(ident, _clock() - t0, sum(result.per_thread_cycles),
                        "interp")
                ops.append(op)
                self.check(op, (index, name), binary, memory,
                           workload.regs, core_set, result, digest, model)
        return Round(ops, sum(op.latency_s for op in ops))

    def check(self, op, image, binary, memory, regs, core_set, result,
              digest, model) -> None:
        """Oracle, digest and model counts of one op; ``image`` names
        the (round, program) its memory image was drawn for."""
        key = image + (program_fingerprint(binary),)
        if key not in self.reference:
            self.reference.clear()  # keep only the current image's runs
            self.reference[key] = self.shards(binary, memory, regs)
        runs, final = self.reference[key]
        op.problems += oracle.multicore_mismatch(result, runs, final)
        digest.add(op.ident, result.cycles, result.per_thread_cycles,
                   result.per_thread_instructions, result.invalidations,
                   sorted(result.memory.snapshot().items()))
        for core in core_set.cores:
            stats = {k: v for k, v in core.stats.items()
                     if not k.startswith("_")}
            stats.update(core.caches.stats())
            stats["committed_uops"] = len(core.committed)
            stats["fetched_uops"] = core.seq_counter
            for key_, value in core.defense.stats.items():
                stats[f"defense_{key_}"] = value
            digest.add_stats(op.ident, core.cycle, stats)
            model.add(stats, core.cycle, core.config.width)


class Dispatch(Workload):
    """Many small specs through ``run_batch`` on a cold cache (writes),
    then again after clearing in-process caches (reads), and a short
    ``run_campaign(jobs=2)``: little simulation per op, so pool, IPC
    and result-cache I/O dominate.  Three rounds cover the 12 x 6 spec
    matrix; the seed sets the submission order.

    An op is one spec, its cold write and warm read together, or one
    campaign program.  Its latency is what the caller waits for it: the
    time since the previous result of the same batch arrived."""

    name = "dispatch"
    nominal_round_s = 3.5
    WORKLOADS = ("ossl.bnexp", "ossl.dh", "ossl.ecadd", "bearssl", "ctaes",
                 "djbsort", "hacl.curve25519", "hacl.poly1305",
                 "ossl.curve25519", "ossl.sha256", "sodium.sha256",
                 "nginx.c1r1")
    CONFIGS = (("unsafe", None), ("stt", None), ("spt", None),
               ("spt-sb", None), ("delay", "auto"), ("track", "auto"))
    CAMPAIGN_PROGRAMS = 2
    CAMPAIGN_PAIRS = 2

    def setup(self, seed: int, rounds: int) -> None:
        self.seed = seed
        self.jobs = min(2, os.cpu_count() or 1)
        for name in self.WORKLOADS:
            get_workload(name)
        self.reference = _Reference()

    def specs(self, index: int) -> List[RunSpec]:
        configs = [self.CONFIGS[(2 * index + k) % len(self.CONFIGS)]
                   for k in range(2)]
        specs = [RunSpec(name, defense, instrument)
                 for defense, instrument in configs
                 for name in self.WORKLOADS]
        _derive(self.seed, "dispatch", index).shuffle(specs)
        return specs

    def campaign(self, index: int) -> CampaignConfig:
        return CampaignConfig(
            defense_factory=DEFENSES["track"], defense_name="track",
            contract=Contract.UNPROT_SEQ, instrumentation="rand",
            n_programs=self.CAMPAIGN_PROGRAMS,
            pairs_per_program=self.CAMPAIGN_PAIRS, program_size=40,
            seed=_derive(Fuzz.CORPUS_SEED, "dispatch", index
                         ).randrange(1 << 30))

    @staticmethod
    def _gaps(start: float, arrivals) -> Dict[object, float]:
        """Caller-visible cost of each result: time since the previous
        result arrived (the first counts from the batch start)."""
        gaps = {}
        for key, at in arrivals:
            gaps[key] = at - start
            start = at
        return gaps

    def _batch(self, probe, specs, arrive_on):
        probe.arrive_on, probe.arrivals = arrive_on, []
        start = _clock()
        try:
            with probe.op(f"batch-{arrive_on}"):
                results = run_batch(specs, jobs=self.jobs)
        finally:
            probe.arrive_on = None
        return results, _clock() - start, self._gaps(start, probe.arrivals)

    def run_round(self, index, probe, digest, model, reset):
        specs = self.specs(index)
        config = self.campaign(index)
        started = _clock()
        cold, cold_s, cold_gaps = self._batch(probe, specs, "cache_store")
        runner.clear_caches()
        warm, _, warm_gaps = self._batch(probe, specs, "cache_load")
        arrivals, parts = [], {}

        def arrived(seed, part):
            arrivals.append((seed, _clock()))
            parts[seed] = part

        campaign_start = _clock()
        with probe.op("campaign"):
            campaign = run_campaign(config, jobs=self.jobs,
                                    on_program=arrived)
        campaign_s = _clock() - campaign_start
        wall = _clock() - started

        ops = []
        for spec in specs:
            summary = cold[spec]
            ident = f"{spec.workload}/{spec.defense}"
            op = Op(ident, cold_gaps.get(spec, 0.0) + warm_gaps.get(spec, 0.0),
                    summary.cycles, "pool")
            if warm[spec] != summary:
                op.problems.append("cache read differs from the result "
                                   "written")
            if spec not in cold_gaps or spec not in warm_gaps:
                op.problems.append("result never crossed the cache")
            workload = get_workload(spec.workload)
            seq = self.reference.run(_binary(spec), workload.memory,
                                     workload.regs)
            width = spec.core_config().width
            op.problems += oracle.summary_mismatch(summary, len(seq.pcs),
                                                   width)
            digest.add_stats(ident, summary.cycles, summary.stat)
            model.add(summary.stat, summary.cycles, width)
            ops.append(op)
        for seed, gap in self._gaps(campaign_start, arrivals).items():
            part = parts[seed]
            op = Op(f"campaign/{seed}", gap, 0, "pool")
            if part.violations:
                op.problems.append(f"ProtTrack violation in campaign "
                                   f"program {seed}")
            digest.add("campaign", seed, part.to_dict())
            ops.append(op)
        if campaign.tests + campaign.invalid_pairs != (
                self.CAMPAIGN_PROGRAMS * self.CAMPAIGN_PAIRS):
            ops[-1].problems.append("campaign lost input pairs")

        layers = {}
        if probe.traced:
            # The same ops once more, serially, for the pool overhead.
            reset()
            with probe.op("serial-batch"):
                start = _clock()
                run_batch(specs, jobs=1)
                layers["batch_serial_s"] = _clock() - start
            with probe.op("serial-campaign"):
                start = _clock()
                run_campaign(config, jobs=1)
                layers["campaign_serial_s"] = _clock() - start
            layers["batch_pool_s"] = cold_s
            layers["campaign_pool_s"] = campaign_s
        return Round(ops, wall, layers)


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (Sweep(), Fuzz(), ParsecMT(), Dispatch())}
