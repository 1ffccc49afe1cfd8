"""Randomized workload generation.

Produces structurally valid, always-terminating programs with
configurable memory-dependence density.  Used by the property-based
test suite to exercise the interpreter, the dependence models, and the
timing simulator on inputs no hand-written kernel would cover, and
available to users who want to stress the mechanism with synthetic
dependence patterns.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.isa.assembler import Assembler
from repro.isa.program import Program


@dataclass
class RandomProgramConfig:
    """Knobs for :func:`generate_program`.

    Attributes:
        tasks: number of loop iterations (each is a Multiscalar task).
        body_ops: ALU operations per iteration body.
        loads_per_task / stores_per_task: memory operations per body.
        shared_words: size of the shared region; smaller regions create
            denser cross-task dependences.
        private_words: size of each task's private scratch area.
        branch_probability: chance of an intra-body forward branch.
        secret_words: how many leading shared words to declare secret
            (clamped to ``shared_words``; 0 = no secret region), feeding
            the speculative-leak analysis and the dynamic taint
            sanitizer.
        seed: RNG seed (every program is a pure function of the config).
    """

    tasks: int = 20
    body_ops: int = 6
    loads_per_task: int = 2
    stores_per_task: int = 2
    shared_words: int = 8
    private_words: int = 64
    branch_probability: float = 0.3
    secret_words: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.tasks < 1:
            raise ValueError("need at least one task")
        if self.shared_words < 1:
            raise ValueError("need at least one shared word")


#: scratch registers the generator draws from (avoids s-registers, which
#: hold the loop state)
_SCRATCH = ["t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"]
_ALU_OPS = ("add", "sub", "xor", "or_", "and_")


def generate_program(config: RandomProgramConfig) -> Program:
    """Build a random, validated, terminating program."""
    rng = random.Random(config.seed)
    a = Assembler("random-%d" % config.seed)

    shared_base = 0x1000
    private_base = shared_base + 4 * config.shared_words + 64

    for i in range(config.shared_words):
        a.word(shared_base + 4 * i, rng.randint(0, 255))
    secret_words = min(config.secret_words, config.shared_words)
    if secret_words > 0:
        a.secret(shared_base, shared_base + 4 * secret_words - 4)

    a.li("s1", shared_base)
    a.li("s2", private_base)
    a.li("s3", 0)
    a.li("s4", config.tasks)

    a.label("loop")
    a.task_begin()
    a.addi("s3", "s3", 1)
    a.addi("s2", "s2", 4 * max(1, config.private_words // config.tasks))

    branch_id = 0
    for op_index in range(config.body_ops):
        rd, rs1, rs2 = (rng.choice(_SCRATCH) for _ in range(3))
        getattr(a, rng.choice(_ALU_OPS))(rd, rs1, rs2)
        a.andi(rd, rd, 0xFFFF)
        if rng.random() < config.branch_probability:
            label = "skip_%d_%d" % (config.seed & 0xFFFF, branch_id)
            branch_id += 1
            a.beq(rng.choice(_SCRATCH), "zero", label)
            getattr(a, rng.choice(_ALU_OPS))(
                rng.choice(_SCRATCH), rng.choice(_SCRATCH), rng.choice(_SCRATCH)
            )
            a.label(label)

    for _ in range(config.loads_per_task):
        slot = rng.randrange(config.shared_words)
        a.lw(rng.choice(_SCRATCH), "s1", 4 * slot)
    for _ in range(config.stores_per_task):
        if rng.random() < 0.5:
            slot = rng.randrange(config.shared_words)
            a.sw(rng.choice(_SCRATCH), "s1", 4 * slot)
        else:
            a.sw(rng.choice(_SCRATCH), "s2", 0)

    a.blt("s3", "s4", "loop")
    a.halt()
    return a.assemble()


def generate_trace(config: RandomProgramConfig):
    """Generate and interpret a random program.

    Interprets with the raw :func:`~repro.frontend.run_program`, not the
    trace memo: memoized traces are shared and must stay immutable, and
    callers of this helper (property tests) may mutate the trace they get.
    """
    from repro.frontend import run_program

    limit = 64 * (config.tasks + 1) * (
        config.body_ops * 3 + config.loads_per_task + config.stores_per_task + 8
    )
    return run_program(generate_program(config), max_instructions=max(limit, 10_000))
