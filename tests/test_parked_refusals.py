"""Per-uop wake conditions in the compiled kernel.

When a defense hook refuses a uop, the compiled kernel *parks* it with
the ROB-head seq its ``*_recheck_seq`` hint names and an epoch of the
events that can overturn the refusal.  It calls the hook again only
once the head reaches that barrier or an event moves the epoch; in
between, the refusal's counters are replayed without a call.

These tests wrap a ProtTrack instance's hooks (per instance, the way
``perfbench/probe.py`` counts them) and prove both halves:

* every repeated refusal of a uop is *justified*: since that uop's
  previous refusal, either the ROB head reached the barrier its hint
  named, or an event happened (a branch resolution, which is also
  where squashes happen; a load execution; a store or divide issue);
* skipping the unjustified polls changed nothing: every refusal
  counter, episode count and episode delay equals the reference
  engine's.
"""

import random

import pytest

from repro.defenses import ProtTrack
from repro.fixtures import build
from repro.fuzzing.campaign import program_seeds
from repro.fuzzing.generator import generate_program
from repro.fuzzing.inputs import generate_input
from repro.protcc import compile_program
from repro.uarch import P_CORE, simulate
from repro.uarch.compiled import CompiledCore
from repro.uarch.config import E_CORE, SpeculationModel

GATES = (("may_execute", "execute_recheck_seq", "exec"),
         ("may_resolve", "resolve_recheck_seq", "resolve"),
         ("may_wakeup", "wakeup_recheck_seq", "wakeup"))

#: Defense counters the parked replay must reproduce exactly.
EXACT_DSTATS = ("delayed_transmitters", "delayed_resolutions",
                "delayed_wakeups", "exec_interventions",
                "exec_delay_cycles", "resolve_interventions",
                "resolve_delay_cycles", "wakeup_interventions",
                "wakeup_delay_cycles")


class PollAudit:
    """Wraps one ProtTrack instance's gate and hint hooks and classifies
    every gate call: an allow, the first refusal of an episode, or a
    re-poll of a refused uop (justified or not)."""

    def __init__(self, defense) -> None:
        self.defense = defense
        self.events = 0
        self.allowed = 0
        self.first_refusals = {hook: 0 for _, _, hook in GATES}
        self.repolls = 0
        self.unjustified = []
        self.hint_calls = 0
        self.refusals = 0
        #: (hook, seq) -> (barrier head seq, event count) of the last
        #: refusal; cleared when the hook allows the uop.
        self.parked = {}
        for gate, hint, hook in GATES:
            self._wrap(gate, getattr(defense, hint), hook)
            self._count_hint(hint)
        self._observe("on_load_executed")

    def _head_seq(self):
        head = self.defense.core.rob.head
        return head.seq if head is not None else None

    def _wrap(self, gate, hint, hook) -> None:
        original = getattr(self.defense, gate)
        audit = self

        def wrapper(uop):
            answer = original(uop)
            key = (hook, uop.seq)
            previous = audit.parked.pop(key, None)
            if uop.inst.is_store or uop.inst.is_div:
                if answer and gate == "may_execute":
                    audit.events += 1  # it issues right after the allow
            if answer:
                audit.allowed += 1
                return answer
            audit.refusals += 1
            head = audit._head_seq()
            if previous is None:
                audit.first_refusals[hook] += 1
            else:
                audit.repolls += 1
                barrier, events = previous
                if events == audit.events and (head is None
                                               or head < barrier):
                    audit.unjustified.append((hook, uop.seq, head, barrier))
            barrier = hint(uop)
            if barrier is None:
                barrier = head + 1 if head is not None else 0
            audit.parked[key] = (barrier, audit.events)
            return answer

        setattr(self.defense, gate, wrapper)

    def _count_hint(self, hint) -> None:
        original = getattr(self.defense, hint)
        audit = self

        def wrapper(uop):
            audit.hint_calls += 1
            return original(uop)

        setattr(self.defense, hint, wrapper)

    def _observe(self, hook) -> None:
        original = getattr(self.defense, hook)
        audit = self

        def wrapper(uop):
            audit.events += 1
            return original(uop)

        setattr(self.defense, hook, wrapper)

    def observe_resolutions(self, core) -> None:
        """Every resolution trains the predictor exactly once, and every
        squash happens inside a resolution."""
        original = core.bp.train
        audit = self

        def train(*args):
            audit.events += 1
            return original(*args)

        core.bp.train = train


def _fuzz_cell_case():
    seed = program_seeds(7, 1)[0]
    binary = compile_program(generate_program(seed, 40), "rand",
                             rng=random.Random(seed ^ 0xC0DE)).program
    test_input = generate_input(random.Random(seed ^ 0xF00D))
    return binary, test_input.build_memory, test_input.build_regs()


def _case(name):
    if name == "fuzz-cell":
        return _fuzz_cell_case()
    program, _ = build(name)
    return program, (lambda: build(name)[1]), None


CASES = [
    ("v1-gadget", P_CORE),
    ("div-channel", P_CORE.replace(div_is_transmitter=True)),
    ("fuzz-cell", P_CORE),
    ("fuzz-cell", E_CORE.replace(
        speculation_model=SpeculationModel.CONTROL)),
]


@pytest.mark.parametrize("name,config", CASES,
                         ids=[f"{n}-{c.name}-{c.speculation_model.value}"
                              for n, c in CASES])
def test_hooks_repolled_only_when_their_answer_can_change(name, config):
    program, memory_factory, regs = _case(name)
    defense = ProtTrack()
    audit = PollAudit(defense)
    core = CompiledCore(program, defense, config, memory_factory(),
                        dict(regs) if regs else None)
    audit.observe_resolutions(core)
    result = core.run()
    reference = simulate(program, ProtTrack(), config, memory_factory(),
                         dict(regs) if regs else None, engine="refcore")

    assert result.cycles == reference.cycles
    assert result.stats["delayed_resolution_cycles"] == \
        reference.stats["delayed_resolution_cycles"]
    for key in EXACT_DSTATS:
        assert result.stats[f"defense_{key}"] == \
            reference.stats[f"defense_{key}"], key

    assert audit.refusals > 0, "the case never exercised a refusal"
    assert audit.unjustified == []
    # Each first refusal opens exactly one intervention episode.
    for _, _, hook in GATES:
        assert audit.first_refusals[hook] == \
            result.stats[f"defense_{hook}_interventions"], hook
    polls = audit.allowed + audit.refusals
    assert polls <= (audit.allowed + sum(audit.first_refusals.values())
                     + audit.repolls)
    # One stability hint per real refusal, none per replayed one.
    assert audit.hint_calls == audit.refusals
    # Replayed refusals dwarf real ones wherever uops wait long.
    assert result.stats["defense_delayed_transmitters"] \
        + result.stats["defense_delayed_resolutions"] >= audit.refusals
