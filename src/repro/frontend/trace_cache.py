"""Content-addressed trace cache (in-process + on-disk).

The paper's methodology — and every experiment grid in this repo —
evaluates *one* dynamic trace under many ``(config, policy)`` cells.
Interpreting the workload is pure: the trace is a function of the
program and the instruction budget alone.  This module exploits that:

* :func:`program_fingerprint` — SHA-256 over everything the interpreter
  can observe (instructions, initial memory, entry PC, the
  ``max_instructions`` budget) plus :data:`TRACE_FORMAT_VERSION`.  The
  fingerprint is the cache key *and* the invalidation rule: change a
  kernel and the old entry simply stops being addressed.
* :func:`serialize_trace` / :func:`deserialize_trace` — a compact
  binary columnar encoding of a :class:`~repro.frontend.trace.Trace`
  (per-field arrays instead of a pickle of entry objects), used by the
  on-disk layer.
* :class:`TraceCache` — two layers: a process-wide in-memory table
  (shared by every instance, so executor workers forked after a warm-up
  inherit it copy-on-write) and an optional on-disk store under
  ``<root>/<fp[:2]>/<fp>.trace`` with atomic writes.  Disk problems of
  any kind read as misses; the cache never turns an interpretable
  program into an error.

The process-global cache used by :meth:`Workload.trace
<repro.workloads.base.Workload.trace>` is configured from the
``REPRO_TRACE_CACHE`` environment variable (a directory path; unset or
``0``/``off``/``no`` keeps the cache memory-only) or programmatically
via :func:`configure_trace_cache`.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
import sys
from array import array
from pathlib import Path
from typing import Dict, Optional

from repro.frontend.interpreter import run_program
from repro.frontend.trace import Trace, TraceEntry

#: Version of the binary trace encoding.  Part of every fingerprint and
#: of every file header: bumping it makes all previously written traces
#: unreachable *and* unreadable, so a format change can never feed stale
#: bytes into an experiment.
TRACE_FORMAT_VERSION = 1

_MAGIC = b"RTRC"

_LITTLE = 1 if sys.byteorder == "little" else 0

#: (attribute extractor order) -> array typecode of each binary column.
_COLUMNS = ("pc", "next_pc", "task_id", "task_pc", "addr", "taken", "vtag", "vnum")
_TYPECODES = ("i", "i", "i", "i", "q", "b", "b", "q")


class TraceFormatError(Exception):
    """Raised when serialized trace bytes cannot be decoded."""


def program_fingerprint(program, max_instructions=5_000_000) -> str:
    """SHA-256 identity of ``run_program(program, max_instructions)``.

    Covers every input the interpreter reads — the instruction stream
    (opcode, registers, immediate, branch target, task boundaries),
    initial memory, the entry PC — plus the instruction budget and the
    trace format version.
    """
    digest = hashlib.sha256()
    digest.update(
        b"repro-trace:v%d:%d:" % (TRACE_FORMAT_VERSION, max_instructions)
    )
    digest.update(program.name.encode())
    digest.update(b":%d:" % program.entry)
    for inst in program.instructions:
        digest.update(
            repr(
                (
                    inst.op.value,
                    inst.rd,
                    inst.rs1,
                    inst.rs2,
                    inst.imm,
                    inst.target,
                    inst.task_entry,
                )
            ).encode()
        )
    for addr in sorted(program.initial_memory):
        digest.update(b"m%r=%r;" % (addr, program.initial_memory[addr]))
    return digest.hexdigest()


def serialize_trace(trace, fingerprint="") -> bytes:
    """Encode *trace* as compact binary columns.

    Layout: magic, format version, byte order, entry count, the
    64-hex-char fingerprint, then one length-prefixed array per column.
    Values get a per-entry tag column (none / int64 / float64 /
    pickled overflow) because trace values are Python ints of arbitrary
    width or floats from the FP opcodes.
    """
    entries = trace.entries
    n = len(entries)
    pc = array("i", bytes(4 * n))
    next_pc = array("i", bytes(4 * n))
    task_id = array("i", bytes(4 * n))
    task_pc = array("i", bytes(4 * n))
    addr = array("q", bytes(8 * n))
    taken = array("b", bytes(n))
    vtag = array("b", bytes(n))
    vnum = array("q", bytes(8 * n))
    overflow: Dict[int, object] = {}
    pack = struct.pack
    unpack = struct.unpack
    for i, e in enumerate(entries):
        pc[i] = e.inst.pc
        next_pc[i] = e.next_pc
        task_id[i] = e.task_id
        task_pc[i] = e.task_pc
        a = e.addr
        addr[i] = -1 if a is None else a
        t = e.taken
        taken[i] = -1 if t is None else (1 if t else 0)
        v = e.value
        if v is None:
            continue
        if isinstance(v, float):
            vtag[i] = 2
            vnum[i] = unpack("<q", pack("<d", v))[0]
        elif isinstance(v, int) and -(2**63) <= v < 2**63:
            vtag[i] = 1
            vnum[i] = v
        else:
            vtag[i] = 3
            overflow[i] = v
    fp = fingerprint.encode("ascii")[:64].ljust(64, b"\0")
    parts = [_MAGIC, pack("<HBxQ", TRACE_FORMAT_VERSION, _LITTLE, n), fp]
    for column, typecode in zip(
        (pc, next_pc, task_id, task_pc, addr, taken, vtag, vnum), _TYPECODES
    ):
        blob = column.tobytes()
        parts.append(pack("<cBQ", typecode.encode(), column.itemsize, len(blob)))
        parts.append(blob)
    blob = pickle.dumps(overflow, protocol=2)
    parts.append(pack("<Q", len(blob)))
    parts.append(blob)
    return b"".join(parts)


def deserialize_trace(data, program, fingerprint=None) -> Trace:
    """Decode :func:`serialize_trace` bytes back into a :class:`Trace`.

    *program* supplies the static instructions the entries point at.
    When *fingerprint* is given it must match the stored one — the
    caller's way of asserting the bytes belong to this exact program.
    Raises :class:`TraceFormatError` on any mismatch or corruption.
    """
    try:
        if data[:4] != _MAGIC:
            raise TraceFormatError("bad magic")
        version, little, n = struct.unpack_from("<HBxQ", data, 4)
        if version != TRACE_FORMAT_VERSION:
            raise TraceFormatError("format version %d != %d" % (version, TRACE_FORMAT_VERSION))
        if little != _LITTLE:
            raise TraceFormatError("byte-order mismatch")
        stored_fp = data[16:80].rstrip(b"\0").decode("ascii")
        if fingerprint is not None and stored_fp != fingerprint:
            raise TraceFormatError("fingerprint mismatch")
        offset = 80
        columns = []
        for typecode in _TYPECODES:
            code, itemsize, length = struct.unpack_from("<cBQ", data, offset)
            offset += 10
            column = array(typecode)
            if code != typecode.encode() or itemsize != column.itemsize:
                raise TraceFormatError("column layout mismatch")
            if length != column.itemsize * n:
                raise TraceFormatError("column length mismatch")
            column.frombytes(data[offset : offset + length])
            offset += length
            columns.append(column)
        (length,) = struct.unpack_from("<Q", data, offset)
        offset += 8
        overflow = pickle.loads(data[offset : offset + length])
    except TraceFormatError:
        raise
    except Exception as exc:
        raise TraceFormatError("truncated or corrupt trace: %s" % (exc,)) from exc

    pc, next_pc, task_id, task_pc, addr, taken, vtag, vnum = columns
    instructions = program.instructions
    unpack = struct.unpack
    pack = struct.pack
    entries = []
    append = entries.append
    for i in range(n):
        a = addr[i]
        t = taken[i]
        tag = vtag[i]
        if tag == 0:
            v = None
        elif tag == 1:
            v = vnum[i]
        elif tag == 2:
            v = unpack("<d", pack("<q", vnum[i]))[0]
        else:
            v = overflow[i]
        append(
            TraceEntry(
                i,
                instructions[pc[i]],
                None if a < 0 else a,
                v,
                None if t < 0 else bool(t),
                next_pc[i],
                task_id[i],
                task_pc[i],
            )
        )
    return Trace(program, entries)


#: Process-wide in-memory layer, keyed by fingerprint.  Shared by every
#: :class:`TraceCache` instance so re-pointing the disk root never
#: forgets already-interpreted traces, and forked executor workers
#: inherit warm entries copy-on-write.
_MEMORY: Dict[str, Trace] = {}


class TraceCache:
    """Two-layer content-addressed trace store."""

    def __init__(self, root=None):
        self.root: Optional[Path] = Path(root).expanduser() if root else None
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0

    def path(self, fingerprint) -> Optional[Path]:
        if self.root is None:
            return None
        return self.root / fingerprint[:2] / (fingerprint + ".trace")

    def get_or_run(self, program, max_instructions=5_000_000) -> Trace:
        """The cached trace of *program*, interpreting on a miss."""
        fingerprint = program_fingerprint(program, max_instructions)
        trace = _MEMORY.get(fingerprint)
        if trace is not None:
            self.memory_hits += 1
            return trace
        trace = self._read(fingerprint, program)
        if trace is not None:
            self.disk_hits += 1
        else:
            self.misses += 1
            trace = run_program(program, max_instructions=max_instructions)
            self._write(fingerprint, trace)
        _MEMORY[fingerprint] = trace
        return trace

    def _read(self, fingerprint, program) -> Optional[Trace]:
        path = self.path(fingerprint)
        if path is None:
            return None
        try:
            data = path.read_bytes()
        except OSError:
            return None
        try:
            return deserialize_trace(data, program, fingerprint=fingerprint)
        except TraceFormatError:
            return None

    def _write(self, fingerprint, trace) -> None:
        path = self.path(fingerprint)
        if path is None:
            return
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(path.name + ".%d.tmp" % os.getpid())
            tmp.write_bytes(serialize_trace(trace, fingerprint=fingerprint))
            os.replace(str(tmp), str(path))
        except OSError:
            pass  # a read-only or vanished cache dir must never fail a run


_GLOBAL: Optional[TraceCache] = None


def global_trace_cache() -> TraceCache:
    """The process-global cache, created on first use from
    ``REPRO_TRACE_CACHE`` (unset/``0``/``off``/``no`` = memory only)."""
    global _GLOBAL
    if _GLOBAL is None:
        setting = os.environ.get("REPRO_TRACE_CACHE", "")
        _GLOBAL = TraceCache(None if setting in ("", "0", "off", "no") else setting)
    return _GLOBAL


def configure_trace_cache(root) -> TraceCache:
    """Point the process-global cache's disk layer at *root* (None =
    memory only).  The in-memory layer is shared and stays warm."""
    global _GLOBAL
    _GLOBAL = TraceCache(root)
    return _GLOBAL


def clear_memory_cache() -> None:
    """Drop every in-memory trace (tests and cold-start benchmarks)."""
    _MEMORY.clear()


def cached_run_program(program, max_instructions=5_000_000) -> Trace:
    """Drop-in for :func:`repro.frontend.run_program` through the
    process-global :class:`TraceCache`.

    The returned trace (and the index memoized on it) is shared by every
    caller that interprets an equal program, so it must be treated as
    immutable; a caller that mutates its trace calls ``run_program``.
    """
    return global_trace_cache().get_or_run(program, max_instructions=max_instructions)
