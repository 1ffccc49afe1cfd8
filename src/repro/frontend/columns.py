"""Per-task aggregates and trace-pure derivations for the batched kernel.

:class:`TraceColumns` holds what the batched kernel
(:mod:`repro.multiscalar.batched`) reads beyond the per-entry columns of
:class:`~repro.frontend.static_index.TraceIndex`: the per-task commit
aggregates, the cache bank/set/tag geometry, and a generic
:meth:`TraceColumns.derived` memo for anything else a consumer derives
from the trace (sequencer prediction streams, unrolled producer
columns, ...).  It is built once per decoded trace (memoized on the
trace's shared index) and shared, read-only, by every simulation over
that trace, so concurrent cells compute each derivation once.

Everything here is plain Python (``array``/``bytearray``/lists): the
simulator never imports NumPy, which would cost every executor worker
its resident memory for no gain in a scalar-indexed loop.
"""

from __future__ import annotations

from array import array
from typing import Any, Callable, Dict, List


def pack_ints(values: List[int]):
    """``values`` in the narrowest column that holds them: a
    ``bytearray`` when every value fits a byte, else the narrowest
    signed ``array``."""
    if all(0 <= v < 256 for v in values):
        return bytearray(values)
    for code in ("h", "i"):
        try:
            return array(code, values)
        except OverflowError:
            pass
    return array("q", values)


class TraceColumns:
    """Per-task aggregates plus memoized derivations of one trace."""

    __slots__ = (
        "n",
        "n_tasks",
        # the index's effective-address column (None: no address)
        "_addr",
        # per-task aggregates (plain lists: scalar-indexed in hot loops)
        "task_n_instr",
        "task_n_loads",
        "task_n_stores",
        "task_load_seqs",
        "_derived",
    )

    def __init__(self, trace, index):
        self.n = index.n
        self.n_tasks = n_tasks = index.n_tasks
        self._addr = index.addr
        self._derived: Dict[Any, Any] = {}

        # per-task aggregates consumed by the batched commit loop
        self.task_n_instr = [0] * n_tasks
        self.task_n_loads = [0] * n_tasks
        self.task_n_stores = [0] * n_tasks
        self.task_load_seqs: List[List[int]] = [[] for _ in range(n_tasks)]
        is_load = index.is_load
        is_store = index.is_store
        for t, seqs in enumerate(index.tasks):
            self.task_n_instr[t] = len(seqs)
            loads = self.task_load_seqs[t]
            n_stores = 0
            for seq in seqs:
                if is_load[seq]:
                    loads.append(seq)
                elif is_store[seq]:
                    n_stores += 1
            self.task_n_loads[t] = len(loads)
            self.task_n_stores[t] = n_stores

    def derived(self, key, build: Callable[[], Any]):
        """Memoize ``build()`` under ``key`` on this column set.

        Consumers use this for trace-pure derivations (cache bank/set/tag
        streams, sequencer prediction streams) so that many concurrent
        cells over one shared trace pay the derivation once.  ``build``
        must be a pure function of the trace; the result is shared and
        must not be mutated.
        """
        try:
            return self._derived[key]
        except KeyError:
            value = self._derived[key] = build()
            return value

    def cache_geometry(self, banks: int, block_bytes: int, sets_per_bank: int):
        """Per-entry ``(bank, set, tag)`` columns for a banked cache shape.

        Each column is packed by :func:`pack_ints` (banks and sets fit a
        byte at the paper's geometry).  Entries with no effective address carry 0;
        only memory entries reach the cache, so those slots are never
        read.
        """

        def build():
            n = self.n
            bank_col = [0] * n
            set_col = [0] * n
            tag_col = [0] * n
            for seq, addr in enumerate(self._addr):
                if addr is None:
                    continue
                block = addr // block_bytes
                bank_col[seq] = block % banks
                in_bank = block // banks
                set_col[seq] = in_bank % sets_per_bank
                tag_col[seq] = in_bank // sets_per_bank
            return pack_ints(bank_col), pack_ints(set_col), pack_ints(tag_col)

        return self.derived(("cache_geometry", banks, block_bytes, sets_per_bank), build)
