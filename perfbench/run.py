"""Host-speed benchmark of the Protean reproduction, end to end and layer
by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` first repeats the untraced run, then runs the same ops
again with a span at every layer boundary and prints the per-layer
metrics, each layer's self time, the tracing overhead, and whether the
traced run reproduced the untraced simulated-result digest.

Human-readable report lines come first; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 when every op passed
the oracle, 1 when one did not, and 2 when the benchmark cannot run
(for example without the ``src/repro`` sources next to it).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("sweep", "fuzz", "parsec-mt", "dispatch")
#: Setups per untraced run; ``setup_s`` is their median.
SETUP_SAMPLES = 5

#: Variables that change which engine runs or where work goes.  Each is
#: cleared so an inherited environment cannot change what is measured.
PINNED_OFF = ("REPRO_ENGINE", "REPRO_NO_COMPILE", "REPRO_NO_FAST_PATH",
              "REPRO_JOBS", "REPRO_FABRIC", "REPRO_NO_CACHE",
              "REPRO_CACHE_SALT", "REPRO_QUICK", "REPRO_LEDGER")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


class WorkDir:
    """Per-process scratch space inside the checkout, removed on exit."""

    def __init__(self) -> None:
        self.path = ROOT / ".perfbench" / f"run-{os.getpid()}"
        self.caches = 0

    def __enter__(self):
        self.path.mkdir(parents=True, exist_ok=True)
        os.environ["TMPDIR"] = str(self.path)
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.path, ignore_errors=True)

    def reset(self) -> None:
        """A cold start: a fresh result/artifact cache directory, no
        in-process cache, and a collected heap, so garbage the previous
        round or its oracle left does not land in this round's ops."""
        from repro.bench import runner

        self.caches += 1
        cache = self.path / f"cache-{self.caches}"
        cache.mkdir()
        os.environ["REPRO_CACHE_DIR"] = str(cache)
        runner.clear_caches()
        gc.collect()


def pin_environment() -> None:
    for name in PINNED_OFF:
        os.environ.pop(name, None)
    os.environ["REPRO_PROGRESS"] = "0"
    os.environ["REPRO_NO_LEDGER"] = "1"
    paths = [str(SRC), str(ROOT)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    sys.path[:0] = [str(SRC), str(ROOT)]


def setup(args):
    """Import the simulator and build the workload's inputs; returns
    (workload, rounds, import seconds, build seconds)."""
    started = time.perf_counter()
    from perfbench import suite

    imported = time.perf_counter()
    workload = suite.WORKLOADS[args.workload]
    rounds = workload.rounds(args.seconds)
    workload.setup(args.seed, rounds)
    return workload, rounds, imported - started, time.perf_counter() - imported


def setup_samples(args, first: float):
    """``first`` plus SETUP_SAMPLES - 1 setups, each in a fresh
    interpreter so the import is cold in memory."""
    samples = [first]
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--setup-probe"]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])
                       ["setup_s"])
    return samples


def measure(workload, rounds: int, traced: bool, work: WorkDir):
    """Run every round; returns (probe, digest, model, rounds)."""
    from perfbench import oracle, suite
    from perfbench.probe import Probe

    probe = Probe(traced)
    digest = oracle.Digest()
    model = suite.Model()
    done = []
    with probe.installed():
        for index in range(rounds):
            work.reset()
            done.append(workload.run_round(index, probe, digest, model,
                                           work.reset))
    return probe, digest, model, done


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------

def tail_percentile(latencies):
    """The highest whole percentile with at least ten samples beyond it
    (nearest rank), never below the median; returns (percentile, value,
    samples beyond)."""
    ordered = sorted(latencies)
    n = len(ordered)
    for percentile in range(99, 49, -1):
        rank = max(1, math.ceil(percentile / 100 * n))
        if n - rank >= 10:
            break
    return percentile, ordered[rank - 1], n - rank


class Report:
    """Prints every metric with its unit; a ratio always with its base."""

    def __init__(self) -> None:
        self.values = {}
        self.ratios = set()

    def line(self, text: str) -> None:
        print(f"# {text}")

    def metric(self, name, value, unit, note=""):
        self.values[name] = value
        self.line(f"{name} = {value:.6g} {unit}" + (f"  ({note})" if note
                                                    else ""))

    def ratio(self, name, num, den, unit, num_label, den_label, scale=1.0):
        base = f"{num:.6g} {num_label} / {den:.6g} {den_label}"
        if scale != 1.0:
            base = f"{scale:g} x {base}"
        self.ratios.add(name)
        self.metric(name, scale * num / den if den else 0.0, unit,
                    f"= {base}")


def report_run(report, args, workload, rounds, done, digest, label):
    ops = [op for r in done for op in r.ops]
    wall = sum(r.wall_s for r in done)
    cycles = sum(op.cycles for op in ops)
    failed = [op for op in ops if op.problems]
    engines = {}
    for op in ops:
        engines[op.engine] = engines.get(op.engine, 0) + 1
    report.line(f"{label}: workload={args.workload} seed={args.seed} "
                f"rounds={rounds} ops={len(ops)} digest={digest.hexdigest()} "
                f"({digest.items} simulated outcomes)")
    report.line("round walls (s): " + ", ".join(f"{r.wall_s:.3f}"
                                                for r in done))
    report.line("engine per op: " + ", ".join(
        f"{name}={count}" for name, count in sorted(engines.items())))
    for note in workload.notes():
        report.line(note)
    for op in failed[:10]:
        report.line(f"FAILED {op.ident}: {'; '.join(op.problems)}")
    return ops, wall, cycles, failed


def end_to_end(report, ops, wall, cycles, failed, setups):
    latencies = [op.latency_s for op in ops]
    report.metric("setup_s", statistics.median(setups), "s",
                  f"median of {len(setups)} setups: "
                  + ", ".join(f"{s:.3f}" for s in setups))
    report.metric("wall_s", wall, "s", "host seconds of the timed rounds")
    report.ratio("ops_per_s", len(ops), wall, "1/s", "ops", "s")
    report.metric("op_p50_ms", 1000 * statistics.median(latencies), "ms",
                  f"median of {len(latencies)} ops")
    percentile, value, beyond = tail_percentile(latencies)
    report.metric("op_tail_ms", 1000 * value, "ms",
                  f"p{percentile} of {len(latencies)} ops, {beyond} beyond")
    report.ratio("sim_cycles_per_s", cycles, wall, "1/s",
                 "simulated core-cycles", "s")
    report.metric("sim_cycles", cycles, "count",
                  "simulated core-cycles, exact")
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    report.metric("peak_rss_mb", usage / 1024, "MB",
                  "max of this process and its largest child")
    report.ratio("failed_frac", len(failed), len(ops), "frac",
                 "failed ops", "attempted ops")


def per_layer(report, probe, model, done, build_s, untraced_wall, jobs):
    """Every per-layer metric of the traced run.  A layer that only some
    workloads enter is printed in seconds and also as its share of the
    traced wall time (``*_frac``), which stays meaningful at zero."""
    from perfbench.probe import GATES, HOOKS

    self_time = probe.self_time
    wall = sum(r.wall_s for r in done)

    def seconds(name, value, note=""):
        report.metric(f"{name}_s", value, "s", note)
        report.ratio(f"{name}_frac", value, wall, "frac", "s self time",
                     "s traced wall")

    report.line("self time by layer (s): " + ", ".join(
        f"{name}={value:.4f}" for name, value in
        sorted(self_time.items(), key=lambda kv: -kv[1])))
    report.line("defense hook self time (s): " + ", ".join(
        f"{name}={probe.hook_time[name]:.4f}" for name in HOOKS))
    report.metric("trace.overhead_s", wall - untraced_wall, "s",
                  f"traced {wall:.4f} s - untraced {untraced_wall:.4f} s")
    report.metric("workloads.build_s", build_s, "s")
    report.metric("protcc.compile_calls", probe.calls["protcc.compile"],
                  "count")
    report.metric("protcc.compile_s", self_time["protcc.compile"], "s")
    seconds("protcc.mitigate", self_time["protcc.mitigate"])
    seconds("fuzzing.gen", self_time["fuzzing.gen"])
    report.metric("arch.seq_runs", probe.calls["arch.seq"], "count")
    seconds("arch.seq", self_time["arch.seq"])
    seconds("contracts.trace", self_time["contracts.trace"])
    seconds("contracts.observe", self_time["contracts.observe"])
    seconds("contracts.check_self", self_time["contracts.check"])
    report.metric("uarch.kernels", len(probe.kernel_keys), "count",
                  "distinct compile keys")
    report.metric("uarch.codegen_calls", probe.calls["uarch.codegen"],
                  "count")
    seconds("uarch.codegen", self_time["uarch.codegen"])
    report.metric("uarch.codegen_lines", probe.codegen_lines, "count")
    seconds("uarch.pycompile", self_time["uarch.compile_step"],
            "compile_step minus codegen")
    report.metric("uarch.sim_calls", probe.calls["uarch.simulate"]
                  + probe.calls["uarch.multicore"], "count")
    report.metric("uarch.loop_s", self_time["uarch.simulate"]
                  + self_time["uarch.multicore"], "s",
                  "simulate and multicore minus compile_step and hooks")
    for engine in ("compiled", "interp"):
        report.ratio(f"uarch.loop_cycles_per_s.{engine}",
                     probe.engine_cycles[engine],
                     probe.engine_loop_s[engine], "1/s",
                     "simulated core-cycles", "s of loop self time")
    seconds("uarch.multicore", self_time["uarch.multicore"])
    for hook in HOOKS:
        report.metric(f"defenses.{hook}.calls", probe.hook_calls[hook],
                      "count")
    report.metric("defenses.hook_s", sum(probe.hook_time.values()), "s")
    report.ratio("defenses.hook_calls_per_kcycle",
                 sum(probe.hook_calls.values()),
                 sum(probe.engine_cycles.values()), "1/kcycle",
                 "hook calls", "simulated core-cycles", scale=1000)
    report.ratio("defenses.gate_allow_frac", probe.gate_allowed[0],
                 sum(probe.hook_calls[g] for g in GATES), "frac",
                 "allowed gate answers", "gate calls")
    seconds("bench.cache_store", self_time["bench.cache_store"])
    seconds("bench.cache_load", self_time["bench.cache_load"])
    report.ratio("bench.cache_hit_frac", probe.cache_hits,
                 probe.calls["bench.cache_load"], "frac",
                 "lookups answered from disk", "lookups")
    for layer, kind in (("bench", "batch"), ("fuzzing", "campaign")):
        pool = sum(r.layers.get(f"{kind}_pool_s", 0.0) for r in done)
        serial = sum(r.layers.get(f"{kind}_serial_s", 0.0) for r in done)
        report.ratio(f"{layer}.pool_overhead_frac",
                     jobs * pool - serial if pool else 0.0, jobs * pool,
                     "frac", f"(jobs x pool wall - serial) s of {kind}",
                     "jobs x pool wall s")
    report.metric("uarch.committed_uops", model.committed, "count")
    report.ratio("uarch.squashed_frac", model.squashed, model.fetched,
                 "frac", "squashed uops", "fetched uops")
    report.ratio("uarch.stall_defense_frac", model.stall_defense,
                 model.slots, "frac", "defense stall slots",
                 "width x cycles slots")
    report.metric("defenses.delayed_refusals", model.refusals, "count")
    report.metric("defenses.interventions", model.interventions, "count")
    report.metric("uarch.sim_cycles", model.cycles, "count")


def write_spans(probe, args) -> Path:
    out = ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.json"
    names = ("name", "start", "end", "parent", "op")
    out.write_text(json.dumps([dict(zip(names, span))
                               for span in probe.spans]))
    return out


def load_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {SRC}/repro",
              file=sys.stderr)
        return 2
    pin_environment()
    with WorkDir() as work:
        if args.setup_probe:
            *_, import_s, build_s = setup(args)
            print(json.dumps({"setup_s": import_s + build_s}))
            return 0
        workload, rounds, import_s, build_s = setup(args)
        end_spec, layer_spec = load_benchmark()
        report = Report()
        _, digest, _, done = measure(workload, rounds, False, work)
        ops, wall, cycles, failed = report_run(
            report, args, workload, rounds, done, digest, "untraced")
        problems = workload.finish()
        if args.trace:
            workload, _, _, build_s = setup(args)
            traced, traced_digest, traced_model, traced_done = measure(
                workload, rounds, True, work)
            traced_ops, _, _, traced_failed = report_run(
                report, args, workload, rounds, traced_done, traced_digest,
                "traced")
            ops, failed = ops + traced_ops, failed + traced_failed
            problems += workload.finish()
            if traced_digest.hexdigest() != digest.hexdigest():
                problems.append("traced run changed the simulated results")
            per_layer(report, traced, traced_model, traced_done, build_s,
                      wall, workload.jobs)
            report.line(f"spans written to {write_spans(traced, args)}")
            wanted = layer_spec
        else:
            setups = setup_samples(args, import_s + build_s)
            end_to_end(report, ops, wall, cycles, failed, setups)
            wanted = end_spec
    for problem in problems:
        report.line(f"FAILED run: {problem}")
    correct = not failed and not problems
    metrics = {m["name"]: {"value": report.values[m["name"]],
                           "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
