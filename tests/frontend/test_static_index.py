"""The shared static index equals a plain per-entry build.

:class:`~repro.frontend.static_index.TraceIndex` fills its columns from
per-PC decode tables, derives the dependence oracle from its own
columns and builds three register maps on first access.  ``reference``
below is the straightforward build it replaced: one walk over the
``TraceEntry`` objects per structure, reading every flag through the
instruction's properties.  Every field of the index, the lazy maps
included, must equal it on every registered workload, on random
programs and on a trace built without a program; and a batched
simulation must leave the lazy maps unbuilt.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend import run_program
from repro.frontend.static_index import FU_ORDER, StaticDecode, TraceIndex
from repro.multiscalar import MultiscalarConfig, MultiscalarSimulator
from repro.multiscalar.policies import make_policy
from repro.workloads import (
    RandomProgramConfig,
    all_workloads,
    generate_program,
    generate_trace,
)

FIELDS = (
    "n",
    "pc",
    "addr",
    "task_id",
    "is_load",
    "is_store",
    "is_memory",
    "fu_code",
    "rd",
    "load_seqs",
    "tasks",
    "n_tasks",
    "task_of",
    "index_in_task",
    "task_pcs",
    "src_operands",
    "src_producers",
    "reg_dependents",
    "task_writesets",
    "producers",
    "dependents",
    "prior_task_stores",
    "all_store_seqs",
    "addr_producer",
)

LAZY = ("src_operands", "reg_dependents", "task_writesets")


def reference(trace):
    """Every index field, built entry by entry from the trace objects."""
    from array import array

    entries = trace.entries
    n = len(entries)
    fu_of = {cls: i for i, cls in enumerate(FU_ORDER)}
    ref = {"n": n}
    pc = ref["pc"] = array("i", bytes(4 * n))
    task_id = ref["task_id"] = array("i", bytes(4 * n))
    addr = ref["addr"] = [None] * n
    is_load = ref["is_load"] = bytearray(n)
    is_store = ref["is_store"] = bytearray(n)
    is_memory = ref["is_memory"] = bytearray(n)
    fu_code = ref["fu_code"] = bytearray(n)
    rd_col = ref["rd"] = array("i", bytes(4 * n))
    load_seqs = ref["load_seqs"] = []
    for seq, entry in enumerate(entries):
        inst = entry.inst
        pc[seq] = inst.pc
        task_id[seq] = entry.task_id
        addr[seq] = entry.addr
        if inst.is_load:
            is_load[seq] = 1
            is_memory[seq] = 1
            load_seqs.append(seq)
        elif inst.is_store:
            is_store[seq] = 1
            is_memory[seq] = 1
        fu_code[seq] = fu_of[inst.fu_class]
        rd_col[seq] = -1 if inst.rd is None else inst.rd

    tasks = ref["tasks"] = [[e.seq for e in slice_] for slice_ in trace.task_slices()]
    ref["n_tasks"] = len(tasks)
    task_of = ref["task_of"] = [0] * n
    index_in_task = ref["index_in_task"] = [0] * n
    task_pcs = ref["task_pcs"] = [0] * len(tasks)
    for t, seqs in enumerate(tasks):
        task_pcs[t] = entries[seqs[0]].task_pc
        for idx, seq in enumerate(seqs):
            task_of[seq] = t
            index_in_task[seq] = idx

    last_writer = {}
    prev_writer = {}
    src_operands = ref["src_operands"] = [()] * n
    src_producers = ref["src_producers"] = [()] * n
    reg_dependents = ref["reg_dependents"] = {}
    for entry in entries:
        inst = entry.inst
        operands = []
        for reg in inst.sources():
            if reg == 0:
                continue
            producer = last_writer.get(reg)
            operands.append((reg, producer, prev_writer.get(reg)))
            if producer is not None:
                reg_dependents.setdefault(producer, []).append(entry.seq)
        src_operands[entry.seq] = tuple(operands)
        src_producers[entry.seq] = tuple(p for _, p, _ in operands if p is not None)
        rd = inst.rd
        if rd is not None and rd != 0:
            prev_writer[rd] = last_writer.get(rd)
            last_writer[rd] = entry.seq

    draft = {}
    for t, seqs in enumerate(tasks):
        regs = draft.setdefault(task_pcs[t], set())
        for seq in seqs:
            if rd_col[seq] > 0:
                regs.add(rd_col[seq])
    ref["task_writesets"] = {pc: frozenset(regs) for pc, regs in draft.items()}

    producers = ref["producers"] = {}
    last_store_to = {}
    for entry in entries:
        if entry.is_store:
            last_store_to[entry.addr] = entry.seq
        elif entry.is_load:
            producers[entry.seq] = last_store_to.get(entry.addr)
    dependents = ref["dependents"] = {}
    for load_seq, store_seq in producers.items():
        if store_seq is not None:
            dependents.setdefault(store_seq, []).append(load_seq)
    for lst in dependents.values():
        lst.sort()

    prior = ref["prior_task_stores"] = {}
    for seqs in tasks:
        stores_so_far = []
        for seq in seqs:
            if is_load[seq] and stores_so_far:
                prior[seq] = list(stores_so_far)
            if is_store[seq]:
                stores_so_far.append(seq)
    ref["all_store_seqs"] = [seq for seq in range(n) if is_store[seq]]

    last_writer.clear()
    addr_producer = ref["addr_producer"] = {}
    for entry in entries:
        inst = entry.inst
        if is_store[entry.seq]:
            base = inst.rs1
            addr_producer[entry.seq] = last_writer.get(base) if base != 0 else None
        if inst.rd is not None and inst.rd != 0:
            last_writer[inst.rd] = entry.seq
    return ref


def comparable(value):
    """Type plus content; dicts compare in insertion order too."""
    if isinstance(value, dict):
        return type(value), list(value.items())
    return type(value), value


def assert_index_matches_reference(trace):
    expected = reference(trace)
    index = TraceIndex(trace)
    for field in FIELDS:
        assert comparable(getattr(index, field)) == comparable(expected[field]), field
    # the oracle has one home: the trace's own index
    assert trace.load_producers() is trace.index().producers
    assert trace.load_producers() == expected["producers"]
    counts = (len(expected["load_seqs"]), len(expected["all_store_seqs"]))
    assert StaticDecode(trace).count_memory(trace.entries) == counts
    if trace.program is not None:
        summary = trace.summary()
        assert (summary["loads"], summary["stores"]) == counts


@pytest.mark.parametrize("workload", all_workloads(), ids=lambda w: w.name)
def test_index_matches_reference_on_every_workload(workload):
    assert_index_matches_reference(workload.trace("tiny"))


configs = st.builds(
    RandomProgramConfig,
    tasks=st.integers(min_value=1, max_value=12),
    body_ops=st.integers(min_value=0, max_value=6),
    loads_per_task=st.integers(min_value=0, max_value=3),
    stores_per_task=st.integers(min_value=0, max_value=3),
    shared_words=st.integers(min_value=1, max_value=8),
    branch_probability=st.floats(min_value=0.0, max_value=0.6),
    seed=st.integers(min_value=0, max_value=2**16),
)


@settings(max_examples=40, deadline=None)
@given(configs)
def test_index_matches_reference_on_random_programs(config):
    assert_index_matches_reference(generate_trace(config))


def test_index_matches_reference_without_a_program():
    # hand-built traces may carry no program: the per-PC tables come
    # from the instructions the entries themselves point at
    trace = run_program(generate_program(RandomProgramConfig(tasks=10, seed=3)))
    trace.program = None
    assert_index_matches_reference(trace)


def test_empty_trace_indexes():
    trace = run_program(generate_program(RandomProgramConfig(tasks=2, seed=1)))
    trace.entries = []
    assert_index_matches_reference(trace)


def test_batched_run_leaves_register_maps_unbuilt():
    trace = generate_trace(RandomProgramConfig(tasks=12, seed=5))
    config = MultiscalarConfig(stages=4, kernel="batched")
    for policy in ("always", "sync", "esync"):
        sim = MultiscalarSimulator(trace, config, make_policy(policy))
        sim.run()
    index = trace.index()
    assert sim._index is index
    assert all(getattr(index, "_" + name) is None for name in LAZY)
    # first access builds each map once and keeps it
    assert index.src_operands is sim.src_operands
    assert index.reg_dependents is sim.reg_dependents
    assert index.task_writesets is sim.task_writesets
