"""Columnar representation and shared static index of a trace.

Every :class:`~repro.multiscalar.processor.MultiscalarSimulator` used to
rebuild the same derived structures — task slices, register dataflow,
the memory dependence oracle, address-generation producers — in its
``_prepare_static`` for every ``(config, policy)`` cell, even though all
of them are functions of the trace alone.  A :class:`TraceIndex` hoists
that work onto the :class:`~repro.frontend.trace.Trace` (built lazily,
once) so repeated simulations of one trace share a single index.

The index also carries the trace as parallel *columns* (``array`` /
``bytearray`` / plain lists of ints): hot loops index
``idx.is_load[seq]`` or ``idx.addr[seq]`` instead of chasing
``TraceEntry -> Instruction`` attribute and property chains, which is
2-3x cheaper per access in CPython.

The build decodes each *static* instruction once (:class:`StaticDecode`,
per-PC tables) and fills the per-entry columns by indexing those tables
with the ``pc`` column, so no dynamic entry goes through the
``inst.is_load -> op -> Enum.__hash__`` chain.  Construction builds the
columns, the task structure, the memory dependence oracle and the
register producers the batched kernel reads; the three register maps
only the per-cycle scan's non-oracle register models and the taint
sanitizer read (``src_operands``, ``reg_dependents``,
``task_writesets``) are built on first access.

Everything in an index is immutable after construction (a lazy map is
computed once and never changes) and shared between concurrently
running simulators; nothing in here may be mutated by a consumer.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import chain, compress
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from repro.isa.opcodes import FUClass

#: Fixed enumeration order of the functional-unit classes.  Columnar
#: consumers use the *position* in this tuple (``fu_code``) instead of
#: the enum member, turning per-issue dict lookups keyed on enum members
#: into list indexing.
FU_ORDER: Tuple[FUClass, ...] = tuple(FUClass)

_FU_CODE: Dict[FUClass, int] = {cls: i for i, cls in enumerate(FU_ORDER)}

NUM_FU_CLASSES = len(FU_ORDER)

_PC_OF = attrgetter("inst.pc")
_TASK_ID_OF = attrgetter("task_id")
_TASK_PC_OF = attrgetter("task_pc")
_ADDR_OF = attrgetter("addr")


class StaticDecode:
    """Per-PC tables of the static instructions a trace executes.

    Each list is indexed by PC.  ``dst`` is the written register, 0 when
    the instruction writes none or writes the hard-wired zero register;
    ``sources`` are the read registers without r0; ``store_base`` is a
    store's address-base register (0 for r0 or none) and -1 for every
    other instruction.  Traces built without a program decode the
    instructions their own entries carry.
    """

    __slots__ = (
        "is_load",
        "is_store",
        "is_memory",
        "fu_code",
        "rd",
        "dst",
        "sources",
        "store_base",
        "n_regs",
    )

    def __init__(self, trace):
        program = trace.program
        if program is not None:
            instructions = program.instructions
        else:
            instructions = list({_PC_OF(e): e.inst for e in trace.entries}.values())
        size = max((inst.pc for inst in instructions), default=-1) + 1
        self.is_load = [0] * size
        self.is_store = [0] * size
        self.is_memory = [0] * size
        self.fu_code = [0] * size
        self.rd = [-1] * size
        self.dst = [0] * size
        self.sources: List[tuple] = [()] * size
        self.store_base = [-1] * size
        n_regs = 1
        for inst in instructions:
            pc = inst.pc
            load = inst.is_load
            store = inst.is_store
            self.is_load[pc] = int(load)
            self.is_store[pc] = int(store)
            self.is_memory[pc] = int(load or store)
            self.fu_code[pc] = _FU_CODE[inst.fu_class]
            rd = inst.rd
            if rd is not None:
                self.rd[pc] = rd
                self.dst[pc] = rd
            sources = tuple(reg for reg in inst.sources() if reg != 0)
            self.sources[pc] = sources
            if store:
                self.store_base[pc] = inst.rs1 or 0
            n_regs = max(n_regs, rd or 0, *sources)
        #: size of a register-indexed table (covers every named register)
        self.n_regs = n_regs + 1

    def count_memory(self, entries) -> Tuple[int, int]:
        """``(loads, stores)`` among the trace ``entries``."""
        counts: Dict[int, int] = {}
        for pc in map(_PC_OF, entries):
            counts[pc] = counts.get(pc, 0) + 1
        is_load = self.is_load
        is_store = self.is_store
        loads = sum(n for pc, n in counts.items() if is_load[pc])
        stores = sum(n for pc, n in counts.items() if is_store[pc])
        return loads, stores


class TraceIndex:
    """Columns plus static per-task / dataflow maps of one trace.

    Attributes mirror what ``MultiscalarSimulator._prepare_static``
    historically derived; the simulator now aliases them.
    """

    __slots__ = (
        "n",
        # columns
        "pc",
        "addr",
        "task_id",
        "is_load",
        "is_store",
        "is_memory",
        "fu_code",
        "rd",
        "load_seqs",
        # task structure
        "tasks",
        "n_tasks",
        "task_of",
        "index_in_task",
        "task_pcs",
        # register dataflow read by the batched kernel
        "src_producers",
        # memory dependence oracle
        "producers",
        "dependents",
        "prior_task_stores",
        "all_store_seqs",
        "addr_producer",
        # per-PC decode, kept for the lazy register maps
        "_decode",
        # lazy register maps (see the properties below)
        "_src_operands",
        "_reg_dependents",
        "_task_writesets",
        # memoized struct-of-arrays view (repro.frontend.columns)
        "_columns",
    )

    def __init__(self, trace):
        entries = trace.entries
        n = len(entries)
        self.n = n
        self._columns = None
        self._src_operands = None
        self._reg_dependents = None
        self._task_writesets = None
        self._decode = decode = StaticDecode(trace)

        # -- columns: per-PC tables indexed by the pc column ----------
        self.pc = pc = array("i", map(_PC_OF, entries))
        self.task_id = task_id = array("i", map(_TASK_ID_OF, entries))
        self.addr: List[Optional[int]] = list(map(_ADDR_OF, entries))
        self.is_load = is_load = bytearray(map(decode.is_load.__getitem__, pc))
        self.is_store = is_store = bytearray(map(decode.is_store.__getitem__, pc))
        self.is_memory = is_memory = bytearray(map(decode.is_memory.__getitem__, pc))
        self.fu_code = bytearray(map(decode.fu_code.__getitem__, pc))
        self.rd = array("i", map(decode.rd.__getitem__, pc))
        # every seq-valued structure below holds the int objects of this
        # one list, so the index allocates one int per entry, not one
        # per reference
        seqs = list(range(n))
        self.load_seqs = list(compress(seqs, is_load))
        self.all_store_seqs = list(compress(seqs, is_store))

        # -- task structure: task ids count up from 0 in commit order -
        self.n_tasks = n_tasks = task_id[-1] + 1 if n else 0
        starts = [bisect_left(task_id, t) for t in range(n_tasks)]
        bounds = list(zip(starts, starts[1:] + [n]))
        self.tasks: List[List[int]] = [seqs[lo:hi] for lo, hi in bounds]
        self.task_of: List[int] = []
        self.index_in_task: List[int] = []
        for t, (lo, hi) in enumerate(bounds):
            self.task_of += [t] * (hi - lo)
            self.index_in_task += seqs[: hi - lo]
        self.task_pcs = [_TASK_PC_OF(entries[lo]) for lo in starts]

        # -- register producers and store address producers -----------
        # one walk over the pc column; last[reg] is the seq of the
        # latest writer of reg (r0 is never written, so it stays None)
        sources = decode.sources
        dst = decode.dst
        store_base = decode.store_base
        last: List[Optional[int]] = [None] * decode.n_regs
        src_producers: List[tuple] = [()] * n
        addr_producer: Dict[int, Optional[int]] = {}
        for seq, p in zip(seqs, pc):
            srcs = sources[p]
            if srcs:
                writers = tuple([w for w in map(last.__getitem__, srcs) if w is not None])
                if writers:
                    src_producers[seq] = writers
            base = store_base[p]
            if base >= 0:
                addr_producer[seq] = last[base]
            reg = dst[p]
            if reg:
                last[reg] = seq
        self.src_producers = src_producers
        self.addr_producer = addr_producer

        # -- memory dependence oracle, from the columns ---------------
        # a load's producer is the latest earlier store to its address
        # (None: the value comes from initial memory); intra-task gating
        # reads each load's earlier same-task stores
        addr = self.addr
        producers: Dict[int, Optional[int]] = {}
        prior: Dict[int, List[int]] = {}
        last_store_to: Dict[Optional[int], int] = {}
        task = -1
        task_stores: List[int] = []
        for seq in compress(seqs, is_memory):
            if task_id[seq] != task:
                task = task_id[seq]
                task_stores = []
            if is_store[seq]:
                last_store_to[addr[seq]] = seq
                task_stores.append(seq)
            else:
                producers[seq] = last_store_to.get(addr[seq])
                if task_stores:
                    prior[seq] = list(task_stores)
        self.producers = producers
        self.prior_task_stores = prior
        self.dependents: Dict[int, List[int]] = {}
        for load_seq, store_seq in producers.items():
            if store_seq is not None:
                self.dependents.setdefault(store_seq, []).append(load_seq)

    # -- lazy register maps ------------------------------------------

    @property
    def src_operands(self) -> List[tuple]:
        """Per entry, one ``(register, producer seq or None,
        penultimate-writer seq or None)`` per non-r0 source operand."""
        if self._src_operands is None:
            self._build_register_maps()
        return self._src_operands

    @property
    def reg_dependents(self) -> Dict[int, List[int]]:
        """Producer seq -> the seqs of the entries that read its value."""
        if self._reg_dependents is None:
            self._build_register_maps()
        return self._reg_dependents

    @property
    def task_writesets(self) -> Dict[int, frozenset]:
        """Task entry PC -> the registers any dynamic instance of that
        task writes."""
        if self._task_writesets is None:
            rd = self.rd
            draft: Dict[int, set] = {}
            for task_pc, seqs in zip(self.task_pcs, self.tasks):
                draft.setdefault(task_pc, set()).update(rd[seqs[0] : seqs[-1] + 1])
            self._task_writesets = {
                pc: frozenset(reg for reg in regs if reg > 0) for pc, regs in draft.items()
            }
        return self._task_writesets

    def _build_register_maps(self) -> None:
        sources = self._decode.sources
        dst = self._decode.dst
        last: List[Optional[int]] = [None] * self._decode.n_regs
        prev: List[Optional[int]] = [None] * self._decode.n_regs
        operands: List[tuple] = [()] * self.n
        dependents: Dict[int, List[int]] = {}
        # the task lists hold the index's shared seq ints, in order
        for seq, p in zip(chain.from_iterable(self.tasks), self.pc):
            srcs = sources[p]
            if srcs:
                row = []
                for reg in srcs:
                    producer = last[reg]
                    row.append((reg, producer, prev[reg]))
                    if producer is not None:
                        dependents.setdefault(producer, []).append(seq)
                operands[seq] = tuple(row)
            reg = dst[p]
            if reg:
                prev[reg] = last[reg]
                last[reg] = seq
        self._src_operands = operands
        self._reg_dependents = dependents

    def columns(self, trace):
        """The struct-of-arrays view of ``trace``, memoized on this index.

        ``trace`` must be the trace this index was built from; the
        column view carries the per-entry fields the index does not
        (next_pc, taken, task_pc) plus the per-task aggregates of the
        batched kernel.  Sharing the memo with the index means
        ``share_index`` semantics carry over: simulators given a private
        index also get private columns.
        """
        if self._columns is None:
            from repro.frontend.columns import TraceColumns

            self._columns = TraceColumns(trace, self)
        return self._columns
