"""AMuLeT*-style fuzzing campaigns (paper SVII-B2).

A campaign tests one (hardware configuration, ProtCC instrumentation,
security contract) triple: it generates random programs, instruments
them, and checks contract-equivalent input pairs for microarchitectural
distinguishability under one or more adversary models.

Programs are independent test units, so a campaign parallelizes at
program granularity (``jobs=N``): every program's RNG streams are
derived from a per-program seed drawn from the master RNG *before*
fan-out, and per-program tallies are merged back in program order, so
the result is bit-identical for any job count.  That invariant extends
to forensics: witnesses are captured inside the per-program unit as
plain serializable dicts and merged in the same order.
"""

from __future__ import annotations

import dataclasses
import logging
import os
import pickle
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..contracts.adversary import ALL_MODELS, AdversaryModel
from ..metrics.registry import get_registry
from ..metrics.spans import SpanRecorder, get_recorder, set_recorder
from ..contracts.checker import (
    CheckOutcome,
    Contract,
    InvalidReason,
    Verdict,
    check_contract_pair,
)
from ..protcc import compile_program, mitigate_program
from ..uarch.config import CoreConfig, P_CORE
from .generator import generate_program
from .inputs import generate_input, mutate_input

logger = logging.getLogger(__name__)


@dataclass
class CampaignConfig:
    """One (defense, instrumentation, contract) fuzzing cell."""

    defense_factory: Callable[[], object]
    contract: Contract
    #: ProtCC class used to instrument test programs ("arch" leaves
    #: binaries unmodified; "rand" random-prefixes them).
    instrumentation: str = "arch"
    #: Software mitigation pass (``repro.protcc.MITIGATIONS``) applied
    #: to the instrumented binary before fuzzing — the "is this pass
    #: contract-secure on our core?" experiment.  Incompatible with the
    #: CTS-SEQ contract (the pass would move the publicly-typed
    #: definition PCs the observer needs).
    mitigation: Optional[str] = None
    n_programs: int = 10
    pairs_per_program: int = 4
    program_size: int = 40
    seed: int = 0
    core: CoreConfig = P_CORE
    adversaries: Tuple[AdversaryModel, ...] = ALL_MODELS
    stop_on_first_violation: bool = False
    #: Harness name from ``repro.bench.runner.DEFENSES``.  When set,
    #: worker processes rebuild the factory from the name, so the cell
    #: parallelizes even if ``defense_factory`` itself (e.g. a lambda)
    #: cannot be pickled.
    defense_name: Optional[str] = None
    #: Capture a serializable ``LeakWitness`` dict for every violation
    #: (``CampaignResult.witnesses``).  Deterministic and merge-ordered,
    #: so serial and parallel runs stay bit-identical.
    collect_witnesses: bool = False


@dataclass
class CampaignResult:
    tests: int = 0
    violations: int = 0
    false_positives: int = 0
    invalid_pairs: int = 0
    #: ``invalid_pairs`` broken down by rejection reason.
    invalid_nonterminating: int = 0
    invalid_distinguishable: int = 0
    invalid_hw_timeout: int = 0
    #: (program seed, pair index, adversary) of each violation.
    violation_sites: List[Tuple[int, int, str]] = field(default_factory=list)
    #: ``LeakWitness.to_dict()`` payloads, one per violation, in
    #: violation-site order (only when ``collect_witnesses`` is set).
    witnesses: List[Dict] = field(default_factory=list)
    #: Telemetry only (never part of result identity): seconds spent.
    wall_time: float = 0.0

    def summary(self) -> str:
        rejected = f"{self.invalid_pairs} pairs rejected"
        if self.invalid_pairs:
            rejected += (f": {self.invalid_nonterminating} nonterminating, "
                         f"{self.invalid_distinguishable} "
                         f"contract-distinguishable, "
                         f"{self.invalid_hw_timeout} hw-timeout")
        return (f"{self.violations} violations ({self.false_positives} FP) "
                f"in {self.tests} tests ({rejected})")

    def to_dict(self) -> Dict:
        """Spool wire format.  ``wall_time`` is telemetry, not result
        identity, so it is excluded — two workers racing the same
        program seed must produce byte-identical payloads."""
        payload = dataclasses.asdict(self)
        del payload["wall_time"]
        payload["violation_sites"] = [list(site)
                                      for site in self.violation_sites]
        return payload

    @classmethod
    def from_dict(cls, payload: Dict) -> "CampaignResult":
        payload = dict(payload)
        payload["violation_sites"] = [tuple(site) for site
                                      in payload.get("violation_sites", [])]
        return cls(**payload)

    def merge(self, other: "CampaignResult") -> None:
        self.tests += other.tests
        self.violations += other.violations
        self.false_positives += other.false_positives
        self.invalid_pairs += other.invalid_pairs
        self.invalid_nonterminating += other.invalid_nonterminating
        self.invalid_distinguishable += other.invalid_distinguishable
        self.invalid_hw_timeout += other.invalid_hw_timeout
        self.violation_sites.extend(other.violation_sites)
        self.witnesses.extend(other.witnesses)
        self.wall_time += other.wall_time


def _resolve_factory(config: CampaignConfig) -> Callable[[], object]:
    if config.defense_factory is not None:
        return config.defense_factory
    from ..bench.runner import DEFENSES

    return DEFENSES[config.defense_name]


def _defense_name(config: CampaignConfig) -> Optional[str]:
    """The harness name witnesses record: the configured name, or a
    reverse lookup of the factory in the bench registry."""
    if config.defense_name is not None:
        return config.defense_name
    if config.defense_factory is not None:
        from ..bench.runner import DEFENSES

        for name, factory in DEFENSES.items():
            if factory is config.defense_factory:
                return name
    return None


def program_seeds(seed: int, n_programs: int) -> List[int]:
    """Per-program seeds of a campaign with master ``seed``, drawn from
    the master RNG up front so fan-out order cannot perturb them."""
    master = random.Random(seed)
    return [master.randrange(1 << 30) for _ in range(n_programs)]


def _program_seeds(config: CampaignConfig) -> List[int]:
    return program_seeds(config.seed, config.n_programs)


def _run_program(config: CampaignConfig, program_seed: int,
                 stop_on_first_violation: bool = False) -> CampaignResult:
    """Fuzz one generated program: the parallel unit of work."""
    start = time.perf_counter()
    result = CampaignResult()
    defense_factory = _resolve_factory(config)
    defense_name = _defense_name(config) if config.collect_witnesses else None
    if config.collect_witnesses and defense_name is None:
        logger.warning(
            "collect_witnesses is set but the defense factory has no "
            "registry name; witnesses will not be replayable by name")
    program = generate_program(program_seed, config.program_size)
    compiled = compile_program(program, config.instrumentation,
                               rng=random.Random(program_seed ^ 0xC0DE))
    binary = compiled.program
    if config.mitigation:
        if config.contract is Contract.CTS_SEQ:
            raise ValueError(
                "software mitigations move instruction positions, so "
                "they cannot be fuzzed under the CTS-SEQ contract "
                "(stale public-definition PCs)")
        binary = mitigate_program(binary, config.mitigation).program
    public_defs = (compiled.public_def_pcs
                   if config.contract is Contract.CTS_SEQ else None)
    input_rng = random.Random(program_seed ^ 0xF00D)
    base_input = generate_input(input_rng)
    for pair_index in range(config.pairs_per_program):
        mutated = mutate_input(input_rng, base_input,
                               public_flips=pair_index % 3 == 2)
        outcome = check_contract_pair(
            binary, defense_factory, config.contract,
            base_input, mutated, config.core,
            adversaries=config.adversaries,
            public_def_pcs=public_defs)
        _tally(result, outcome, program_seed, pair_index)
        if config.collect_witnesses and outcome.verdict is Verdict.VIOLATION:
            from ..forensics.witness import capture_witness

            witness = capture_witness(
                binary, config.contract, base_input, mutated,
                outcome, defense=defense_name, config=config.core,
                instrumentation=config.instrumentation,
                program_seed=program_seed, pair_index=pair_index,
                public_def_pcs=public_defs)
            if config.mitigation:
                witness.meta["mitigation"] = config.mitigation
            result.witnesses.append(witness.to_dict())
        if (stop_on_first_violation
                and outcome.verdict is Verdict.VIOLATION):
            break
    result.wall_time = time.perf_counter() - start
    return result


def _run_program_traced(config: CampaignConfig, program_seed: int,
                        trace_ctx: Optional[Dict]
                        ) -> Tuple[CampaignResult, List[Dict]]:
    """Pool-worker variant of :func:`_run_program` that records the
    program cell as a ``fuzz.program`` span parented under the parent
    process's campaign span, returning ``(result, span_dicts)`` for the
    parent to adopt.  Only mapped when the parent has a recorder
    attached — the untraced pool path keeps calling ``_run_program``
    directly."""
    recorder = SpanRecorder()
    previous = set_recorder(recorder)
    try:
        with recorder.span("fuzz.program",
                           attrs={"program_seed": program_seed},
                           parent=trace_ctx):
            partial = _run_program(config, program_seed)
    finally:
        set_recorder(previous)
    return partial, recorder.to_dicts()


def _picklable_config(config: CampaignConfig) -> Optional[CampaignConfig]:
    """A copy of ``config`` safe to ship to worker processes, or None
    if the cell cannot be parallelized (unpicklable factory, no name)."""
    if config.defense_name is not None:
        config = dataclasses.replace(config, defense_factory=None)
    try:
        pickle.dumps(config)
        return config
    except Exception:
        return None


def resolve_campaign_jobs(jobs: Optional[int] = None) -> int:
    """``jobs`` argument > ``REPRO_JOBS`` env > ``os.cpu_count()``.

    Delegates to the bench executor's resolver so both entry points
    share one warn-and-fallback policy for malformed ``REPRO_JOBS``."""
    from ..bench.executor import resolve_jobs

    return resolve_jobs(jobs)


#: Core configurations the fabric can ship by name (fuzz payloads are
#: JSON; a bespoke ``CoreConfig`` keeps the cell on the local path).
_CORES_BY_NAME = {P_CORE.name: P_CORE}


def _register_fabric_cores() -> Dict[str, CoreConfig]:
    from ..uarch.config import E_CORE

    _CORES_BY_NAME.setdefault(E_CORE.name, E_CORE)
    return _CORES_BY_NAME


def campaign_job_payload(config: CampaignConfig,
                         program_seed: int) -> Optional[Dict]:
    """The spool wire format for one per-program fuzzing unit, or None
    when the cell cannot be shipped as JSON (anonymous defense factory,
    bespoke core config) and must stay on the local path."""
    name = _defense_name(config)
    if name is None:
        return None
    cores = _register_fabric_cores()
    core = cores.get(config.core.name)
    if core is None or core != config.core:
        return None
    return {
        "kind_version": 1,
        "defense": name,
        "contract": config.contract.value,
        "instrumentation": config.instrumentation,
        "mitigation": config.mitigation,
        "pairs_per_program": config.pairs_per_program,
        "program_size": config.program_size,
        "core": config.core.name,
        "adversaries": [model.value for model in config.adversaries],
        "collect_witnesses": config.collect_witnesses,
        "program_seed": program_seed,
    }


def run_campaign_job(payload: Dict) -> Dict:
    """Execute one spooled per-program unit (the fabric worker entry
    point): rebuild the cell from the wire payload and run exactly the
    serial per-program function, so fabric results merge bit-identical
    to a local run.  With a span recorder attached (a fabric worker
    tracing the job), the cell records as a ``fuzz.program`` span under
    the worker's job span."""
    cores = _register_fabric_cores()
    config = CampaignConfig(
        defense_factory=None,
        defense_name=payload["defense"],
        contract=Contract(payload["contract"]),
        instrumentation=payload["instrumentation"],
        mitigation=payload.get("mitigation"),
        n_programs=1,
        pairs_per_program=payload["pairs_per_program"],
        program_size=payload["program_size"],
        core=cores[payload["core"]],
        adversaries=tuple(AdversaryModel(value)
                          for value in payload["adversaries"]),
        collect_witnesses=payload["collect_witnesses"],
    )
    recorder = get_recorder()
    if recorder is None:
        return _run_program(config, payload["program_seed"]).to_dict()
    with recorder.span("fuzz.program",
                       attrs={"program_seed": payload["program_seed"]}):
        return _run_program(config, payload["program_seed"]).to_dict()


def campaign_job(payload: Dict):
    """``(key, kind, payload)`` spool entry for one per-program unit.
    Keyed by payload content + code version, so reruns of the same cell
    dedup and a code change respools everything."""
    from ..bench.executor import _hash, canonical_json, code_version_hash
    from ..bench.fabric.broker import KIND_FUZZ

    key = _hash(canonical_json(payload).encode(),
                code_version_hash().encode())
    return key, KIND_FUZZ, payload


def run_campaign(
    config: CampaignConfig,
    jobs: Optional[int] = None,
    on_program: Optional[Callable[[int, CampaignResult], None]] = None,
    fabric: Optional[str] = None,
) -> CampaignResult:
    """Run one fuzzing cell to completion (or first violation).

    With ``jobs > 1`` programs fan out over a process pool; results are
    merged in program order and are bit-identical to a serial run.
    ``stop_on_first_violation`` cells stay serial so "first" keeps its
    sequential meaning.

    ``on_program(program_seed, partial_result)`` is invoked in the
    parent process, in program order, as each per-program result is
    merged — the campaign telemetry (JSONL event log) hook.

    With ``fabric`` (or ``REPRO_FABRIC``) set to a spool directory,
    per-program units ship through the campaign fabric instead of a
    local pool; cells that cannot be serialized fall back locally.
    """
    seeds = _program_seeds(config)
    jobs = resolve_campaign_jobs(jobs)
    if fabric is None:
        fabric = os.environ.get("REPRO_FABRIC") or None
    logger.info(
        "campaign start: contract=%s instrumentation=%s defense=%s "
        "programs=%d pairs=%d jobs=%d", config.contract.value,
        config.instrumentation, _defense_name(config) or "<anonymous>",
        config.n_programs, config.pairs_per_program, jobs)
    started = time.perf_counter()
    recorder = get_recorder()
    campaign_span = None
    if recorder is not None:
        campaign_span = recorder.start(
            "fuzz.campaign",
            attrs={"contract": config.contract.value,
                   "instrumentation": config.instrumentation,
                   "defense": _defense_name(config) or "<anonymous>",
                   "programs": config.n_programs},
            push=True)
    try:
        result = None
        if fabric and not config.stop_on_first_violation:
            result = _execute_campaign_fabric(config, seeds, fabric,
                                              on_program)
        if result is None:
            result = _execute_campaign(config, seeds, jobs, on_program)
    finally:
        if campaign_span is not None:
            attrs = {}
            if result is not None:
                attrs = {"tests": result.tests,
                         "violations": result.violations}
            recorder.finish(campaign_span, **attrs)
    _record_campaign_metrics(config, result, seeds,
                             time.perf_counter() - started)
    logger.info("campaign done: %s", result.summary())
    return result


def _execute_campaign_fabric(
    config: CampaignConfig,
    seeds: List[int],
    fabric: str,
    on_program: Optional[Callable[[int, CampaignResult], None]],
) -> Optional[CampaignResult]:
    """Shard the campaign's per-program units through the spool at
    ``fabric``; returns None (caller falls back to the local path) when
    the cell cannot be serialized."""
    import json

    from ..bench.fabric.broker import Broker

    payloads = [campaign_job_payload(config, seed) for seed in seeds]
    if any(payload is None for payload in payloads):
        logger.warning(
            "cell cannot be shipped through the fabric (anonymous "
            "defense factory or bespoke core); running locally")
        return None
    registry = get_registry()
    entries = [campaign_job(payload) for payload in payloads]
    recorder = get_recorder()
    seed_spans = {}
    traces = None
    if recorder is not None:
        for seed, (key, _, _) in zip(seeds, entries):
            seed_spans[seed] = recorder.start(
                "fuzz.program-unit",
                attrs={"program_seed": seed, "fabric": str(fabric)})
        traces = {key: seed_spans[seed].context()
                  for seed, (key, _, _) in zip(seeds, entries)}
    with Broker(fabric) as broker:
        metrics_dir = broker.spool.metrics_dir
        if recorder is None:
            broker.submit_jobs(entries, registry=registry)
            broker.wait(registry=registry)
            texts = broker.collect([key for key, _, _ in entries])
        else:
            with recorder.span("fabric.submit"):
                broker.submit_jobs(entries, registry=registry,
                                   traces=traces)
            with recorder.span("fabric.wait",
                               attrs={"jobs": len(entries)}):
                broker.wait(registry=registry)
            with recorder.span("fabric.merge"):
                texts = broker.collect([key for key, _, _ in entries])
        clock_offsets = dict(broker.clock_offsets)
    result = CampaignResult()
    for seed, (key, _, _) in zip(seeds, entries):
        partial = CampaignResult.from_dict(json.loads(texts[key]))
        result.merge(partial)
        if on_program is not None:
            on_program(seed, partial)
    if recorder is not None:
        for seed in seeds:
            recorder.finish(seed_spans[seed])
        recorder.write_shard(metrics_dir, clock_offsets=clock_offsets)
    if registry is not None:
        registry.counter("fabric.collected").inc(len(entries))
    return result


def _execute_campaign(
    config: CampaignConfig,
    seeds: List[int],
    jobs: int,
    on_program: Optional[Callable[[int, CampaignResult], None]],
) -> CampaignResult:
    recorder = get_recorder()
    if jobs > 1 and len(seeds) > 1 and not config.stop_on_first_violation:
        shipped = _picklable_config(config)
        if shipped is not None:
            result = CampaignResult()
            workers = min(jobs, len(seeds))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                if recorder is None:
                    merged = zip(seeds, pool.map(_run_program,
                                                 [shipped] * len(seeds),
                                                 seeds))
                    for seed, partial in merged:
                        result.merge(partial)
                        if on_program is not None:
                            on_program(seed, partial)
                else:
                    ctx = recorder.context()
                    outcomes = pool.map(_run_program_traced,
                                        [shipped] * len(seeds), seeds,
                                        [ctx] * len(seeds))
                    for seed, (partial, payloads) in zip(seeds, outcomes):
                        recorder.adopt(payloads)
                        result.merge(partial)
                        if on_program is not None:
                            on_program(seed, partial)
            return result
        logger.info("cell is not picklable; falling back to a serial run")

    result = CampaignResult()
    for program_seed in seeds:
        if recorder is None:
            partial = _run_program(config, program_seed,
                                   config.stop_on_first_violation)
        else:
            with recorder.span("fuzz.program",
                               attrs={"program_seed": program_seed}):
                partial = _run_program(config, program_seed,
                                       config.stop_on_first_violation)
        result.merge(partial)
        if on_program is not None:
            on_program(program_seed, partial)
        if (config.stop_on_first_violation and result.violations):
            break
    return result


def _record_campaign_metrics(config: CampaignConfig,
                             result: CampaignResult,
                             seeds: List[int], wall_s: float) -> None:
    """Publish campaign throughput into the attached metrics registry
    (one ``is not None`` check per campaign; telemetry only — never
    part of result identity)."""
    registry = get_registry()
    if registry is None:
        return
    checks = result.tests + result.invalid_pairs
    counter = registry.counter
    counter("fuzz.campaigns").inc()
    counter("fuzz.programs").inc(len(seeds))
    counter("fuzz.checks").inc(checks)
    counter("fuzz.violations").inc(result.violations)
    counter("fuzz.false_positives").inc(result.false_positives)
    counter("fuzz.invalid_pairs").inc(result.invalid_pairs)
    counter("fuzz.witnesses").inc(len(result.witnesses))
    registry.timer("fuzz.campaign_seconds").observe(wall_s)
    if wall_s > 0:
        registry.gauge("fuzz.programs_per_sec").set(len(seeds) / wall_s)
        registry.gauge("fuzz.checks_per_sec").set(checks / wall_s)


def _tally(result: CampaignResult, outcome: CheckOutcome,
           program_seed: int, pair_index: int) -> None:
    if outcome.verdict is Verdict.INVALID_PAIR:
        result.invalid_pairs += 1
        if outcome.invalid_reason is InvalidReason.NONTERMINATING:
            result.invalid_nonterminating += 1
        elif outcome.invalid_reason is InvalidReason.DISTINGUISHABLE:
            result.invalid_distinguishable += 1
        elif outcome.invalid_reason is InvalidReason.HW_TIMEOUT:
            result.invalid_hw_timeout += 1
        return
    result.tests += 1
    if outcome.verdict is Verdict.VIOLATION:
        result.violations += 1
        adversary = outcome.adversary.value if outcome.adversary else "?"
        result.violation_sites.append((program_seed, pair_index, adversary))
    elif outcome.verdict is Verdict.FALSE_POSITIVE:
        result.false_positives += 1
