"""Fast self-test of the benchmark (about half a minute).

Run from the repository root::

    python3 perfbench/selftest.py

It checks that the oracle rejects deliberately corrupted outputs (a
flipped final register, a dropped committed instruction, a changed
memory word, a broken stall count, a dropped or added fuzz violation,
a wrong multicore shard), that the digest is deterministic and sees a
one-count change, that a tiny traced run reproduces the untraced digest,
and that every printed ratio carries its numerator and denominator.
Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import run  # noqa: E402

FAILURES = []


def check(condition: bool, what: str) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {what}")
    if not condition:
        FAILURES.append(what)


def single_core_oracle() -> None:
    from repro.arch import run_program
    from repro.bench.executor import summarize
    from repro.bench.runner import RunSpec, execute_spec
    from repro.workloads import get_workload

    from perfbench import oracle

    spec = RunSpec("ossl.dh", "spt-sb")
    workload = get_workload(spec.workload)
    result = execute_spec(spec)
    seq = oracle.Reference.of(
        run_program(workload.program, workload.memory, workload.regs))
    width = spec.core_config().width
    check(oracle.core_mismatch(result, seq, width) == [],
          "sweep oracle passes a real run")

    flipped = list(result.final_regs)
    flipped[3] ^= 1
    check(bool(oracle.core_mismatch(
        dataclasses.replace(result, final_regs=tuple(flipped)), seq, width)),
        "sweep oracle rejects one flipped final register")
    check(bool(oracle.core_mismatch(
        dataclasses.replace(result, committed_pcs=result.committed_pcs[:-1]),
        seq, width)), "sweep oracle rejects a dropped committed instruction")
    memory = result.memory.copy()
    addr = next(iter(memory.touched_addresses()))
    memory.write_byte(addr, memory.read_byte(addr) ^ 0xFF)
    check(bool(oracle.core_mismatch(
        dataclasses.replace(result, memory=memory), seq, width)),
        "sweep oracle rejects a changed memory byte")
    stats = dict(result.stats, stall_frontend=result.stats["stall_frontend"]
                 + 1)
    check(bool(oracle.core_mismatch(
        dataclasses.replace(result, stats=stats), seq, width)),
        "sweep oracle rejects a broken stall-slot count")

    summary = summarize(result)
    check(oracle.summary_mismatch(summary, len(seq.pcs), width)
          == [], "dispatch oracle passes a real summary")
    check(bool(oracle.summary_mismatch(
        dataclasses.replace(summary, instructions=summary.instructions - 1),
        len(seq.pcs), width)),
        "dispatch oracle rejects a wrong instruction count")

    digest_a, digest_b, digest_c = (oracle.Digest() for _ in range(3))
    digest_a.add_stats("op", result.cycles, result.stats)
    digest_b.add_stats("op", result.cycles, dict(result.stats))
    digest_c.add_stats("op", result.cycles, stats)
    check(digest_a.hexdigest() == digest_b.hexdigest(),
          "digest is deterministic")
    check(digest_a.hexdigest() != digest_c.hexdigest(),
          "digest changes with one simulated count")


def multicore_oracle() -> None:
    from repro.bench.runner import DEFENSES
    from repro.uarch.config import E_CORE, P_CORE
    from repro.uarch.multicore import simulate_mt
    from repro.workloads import get_workload

    from perfbench import oracle, suite

    parsec = suite.ParsecMT()
    parsec.setup(seed=3, rounds=1)
    workload = get_workload("swaptions.mt")
    memory = parsec.memory(0, workload.name)
    result = simulate_mt(workload.program, DEFENSES["unsafe"], memory,
                         threads=parsec.THREADS, p_cores=parsec.P_CORES,
                         p_config=P_CORE, e_config=E_CORE)
    runs, final = parsec.shards(workload.program, memory, workload.regs)
    check(oracle.multicore_mismatch(result, runs, final) == [],
          "parsec-mt oracle passes a real run")
    wrong = copy.copy(result)
    wrong.per_thread_instructions = list(result.per_thread_instructions)
    wrong.per_thread_instructions[1] += 1
    check(bool(oracle.multicore_mismatch(wrong, runs, final)),
          "parsec-mt oracle rejects a thread committing one extra insn")
    wrong = copy.copy(result)
    wrong.memory = result.memory.copy()
    addr = next(iter(wrong.memory.touched_addresses()))
    wrong.memory.write_byte(addr, wrong.memory.read_byte(addr) ^ 1)
    check(bool(oracle.multicore_mismatch(wrong, runs, final)),
          "parsec-mt oracle rejects a changed shared-memory byte")


def fuzz_oracle() -> None:
    from perfbench import oracle

    check(oracle.fuzz_mismatch(0, 5) == [], "fuzz oracle passes 0 / 5")
    check(bool(oracle.fuzz_mismatch(1, 5)),
          "fuzz oracle rejects a ProtTrack violation")
    check(bool(oracle.fuzz_mismatch(0, 0)),
          "fuzz oracle rejects an unsafe cell whose violations were dropped")


def tiny_traced_run(work) -> None:
    """One single-program fuzz round, untraced then traced: the digests
    must agree and every ratio line must print its base."""
    from perfbench import suite

    fuzz = suite.Fuzz()
    fuzz.PROGRAMS = 1
    fuzz.setup(seed=5, rounds=1)
    _, plain, _, plain_done = run.measure(fuzz, 1, False, work)
    check(fuzz.finish() == [], "tiny fuzz round passes its oracle")
    fuzz.setup(seed=5, rounds=1)
    probe, traced, model, done = run.measure(fuzz, 1, True, work)
    check(plain.hexdigest() == traced.hexdigest(),
          "traced run reproduces the untraced digest")

    report = run.Report()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        ops, wall, cycles, failed = run.report_run(
            report, _Args(), fuzz, 1, plain_done, plain, "untraced")
        run.end_to_end(report, ops, wall, cycles, failed, [0.1, 0.2, 0.3])
        run.per_layer(report, probe, model, done, 0.01, wall, 1)
    lines = out.getvalue().splitlines()
    for name in sorted(report.ratios):
        line = next(text for text in lines if text.startswith(f"# {name} ="))
        base = line.split("(=", 1)[-1]
        check("(=" in line and " / " in base,
              f"ratio {name} prints its base")
    tail = next(text for text in lines if text.startswith("# op_tail_ms"))
    check(" of " in tail and tail.split("(")[1].startswith("p"),
          "tail latency prints its percentile and sample count")
    check(set(run.WORKLOAD_NAMES) == set(suite.WORKLOADS) == {
        w["name"] for w in json.loads(
            (run.ROOT / "BENCHMARK.json").read_text())["workloads"]},
        "run.py, suite.py and BENCHMARK.json name the same workloads")
    wanted = [m["name"] for part in run.load_benchmark() for m in part]
    missing = [name for name in wanted if name not in report.values]
    check(not missing, f"every BENCHMARK.json metric is reported {missing}")


def corrupted_runs(work) -> None:
    """Corrupt one op's output inside a real round: the op must fail."""
    from repro.bench.runner import RunSpec
    from repro.contracts.checker import CheckOutcome, Verdict
    from repro.fuzzing import campaign

    from perfbench import suite

    sweep = suite.Sweep()
    sweep.setup(seed=1, rounds=1)
    sweep.specs = lambda index: [RunSpec("ossl.dh"), RunSpec("ctaes")]
    execute_spec = suite.execute_spec

    def flip_register(spec):
        result = execute_spec(spec)
        if spec.workload == "ctaes":
            regs = list(result.final_regs)
            regs[2] ^= 1
            result = dataclasses.replace(result, final_regs=tuple(regs))
        return result

    suite.execute_spec = flip_register
    try:
        _, _, _, done = run.measure(sweep, 1, False, work)
    finally:
        suite.execute_spec = execute_spec
    failed = [op.ident for op in done[0].ops if op.problems]
    check(failed == ["ctaes/unsafe"],
          f"a flipped final register fails exactly its op {failed}")

    fuzz = suite.Fuzz()
    fuzz.PROGRAMS = 1
    fuzz.setup(seed=5, rounds=1)
    check_pair = campaign.check_contract_pair
    campaign.check_contract_pair = lambda *a, **k: CheckOutcome(Verdict.PASS)
    try:
        run.measure(fuzz, 1, False, work)
    finally:
        campaign.check_contract_pair = check_pair
    check(bool(fuzz.finish()),
          "dropping every unsafe-cell violation fails the fuzz run")


class _Args:
    workload = "fuzz"
    seed = 5


def main() -> int:
    run.pin_environment()
    with run.WorkDir() as work:
        work.reset()
        single_core_oracle()
        multicore_oracle()
        fuzz_oracle()
        corrupted_runs(work)
        tiny_traced_run(work)
    print(f"{len(FAILURES)} failed checks")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
