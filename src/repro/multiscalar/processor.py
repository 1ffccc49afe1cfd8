"""The Multiscalar timing simulator.

A trace-driven, cycle-level model of the paper's evaluation vehicle
(Section 5.2): *stages* processing units execute consecutive tasks of
the committed instruction trace; each unit issues up to 2 instructions
per cycle out of order from its task, bounded by per-class functional
units; register values produced in earlier tasks arrive over a
unidirectional ring (1 cycle per hop); loads and stores access a banked
data cache; inter-task memory dependences are speculated according to a
pluggable :class:`~repro.multiscalar.policies.SpeculationPolicy`;
violations squash the offending task and its successors, which then
re-execute.

Being trace-driven, data values are always architecturally correct —
the simulator accounts the *timing* of speculation, synchronization,
squash, and re-execution, which is what the paper's experiments
measure.  Wrong-path instructions after a sequencer misprediction are
not executed; their cost is modeled as a dispatch delay
(``mispredict_penalty`` after the mispredicting task resolves).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional

from repro.core.stats import SpeculationStats
from repro.frontend.static_index import FU_ORDER, NUM_FU_CLASSES, TraceIndex
from repro.memsys.cache import BankedCache
from repro.memsys.icache import InstructionCache
from repro.multiscalar.config import MultiscalarConfig
from repro.multiscalar.policies import AlwaysPolicy, SpeculationPolicy
from repro.multiscalar.sequencer import PathBasedTaskPredictor
from repro.telemetry import NULL_TELEMETRY


class SimulationError(Exception):
    """Raised when the simulator cannot make progress (a model bug)."""


class _LazyMinSet:
    """A set of integers with O(log n) amortized minimum queries."""

    def __init__(self, items=()):
        self._set = set(items)
        self._heap = list(self._set)
        heapq.heapify(self._heap)

    def __contains__(self, item):
        return item in self._set

    def add(self, item):
        if item not in self._set:
            self._set.add(item)
            heapq.heappush(self._heap, item)

    def discard(self, item):
        self._set.discard(item)

    def minimum(self) -> Optional[int]:
        heap = self._heap
        while heap and heap[0] not in self._set:
            heapq.heappop(heap)
        return heap[0] if heap else None


class MultiscalarSimulator:
    """Simulates one trace under one configuration and policy."""

    def __init__(
        self,
        trace,
        config=None,
        policy: Optional[SpeculationPolicy] = None,
        telemetry=None,
        share_index=True,
        sanitizer=None,
        squash_ledger=None,
    ):
        self.trace = trace
        self.config = config or MultiscalarConfig()
        self.policy = policy or AlwaysPolicy()
        # share_index=True adopts the trace's memoized TraceIndex, so a
        # grid of simulators over one trace builds the static structures
        # once; False forces a private rebuild (benchmarks, paranoia)
        self._share_index = share_index
        self.cache = BankedCache(self.config.make_cache_config())
        self.stats = SpeculationStats()
        # instrumentation is opt-in: the null default makes every sink
        # call a no-op and lets hot paths skip telemetry entirely, so
        # results and runtimes are unchanged when it is off (the A/B
        # test in tests/telemetry/test_ab.py holds the simulator to it)
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._tel_on = self.telemetry.enabled
        self._prepare_static()
        # optional dynamic taint sanitizer (repro.multiscalar.sanitizer):
        # observes violations for transient secret reads; counts events
        # unconditionally, publishes telemetry only when enabled
        self._sanitizer = sanitizer.bind(self) if sanitizer is not None else None
        # optional squash ledger (repro.multiscalar.explain): records one
        # structured cause per violation; observation only, results are
        # bit-identical with or without it
        self._squash_ledger = (
            squash_ledger.bind(self) if squash_ledger is not None else None
        )

    # ------------------------------------------------------------------
    # static preprocessing
    # ------------------------------------------------------------------

    def _prepare_static(self):
        """Adopt (or build) the trace's static index.

        Everything here is a function of the trace alone; the
        :class:`~repro.frontend.static_index.TraceIndex` memoized on the
        trace lets a whole experiment grid share one copy.  The aliases
        keep the simulator's historical attribute names (policies and
        tests read them), and the ``_c_*`` names are the columnar views
        the hot loops index by ``seq``.
        """
        trace = self.trace
        index_fn = getattr(trace, "index", None)
        if self._share_index and index_fn is not None:
            index = index_fn()
        else:
            index = TraceIndex(trace)
        self._index = index
        self.n = index.n
        self.tasks = index.tasks
        self.n_tasks = index.n_tasks
        self.task_of = index.task_of
        self.index_in_task = index.index_in_task
        self.task_pcs = index.task_pcs
        self.src_producers = index.src_producers
        self.producers = index.producers
        self.dependents = index.dependents
        self.prior_task_stores = index.prior_task_stores
        self.all_store_seqs = index.all_store_seqs
        self.addr_producer = index.addr_producer
        self._c_pc = index.pc
        self._c_addr = index.addr
        self._c_is_load = index.is_load
        self._c_is_store = index.is_store
        self._c_is_memory = index.is_memory
        self._c_fu = index.fu_code
        self._c_rd = index.rd

    # the register maps only the per-cycle scan's non-oracle register
    # models read: the index builds them on first access, so a batched
    # run never pays for them
    @property
    def src_operands(self):
        return self._index.src_operands

    @property
    def reg_dependents(self):
        return self._index.reg_dependents

    @property
    def task_writesets(self):
        return self._index.task_writesets

    # ------------------------------------------------------------------
    # helpers used by policies
    # ------------------------------------------------------------------

    def all_prior_stores_issued(self, seq) -> bool:
        """No store earlier in program order still has an unknown address.

        A store's address is considered known once its base register is
        available and the store has entered its stage's window (address
        generation happens ahead of the data arriving).
        """
        m = self._unknown_addr_stores.minimum()
        return m is None or m >= seq

    def all_prior_stores_executed(self, seq) -> bool:
        """Every store earlier in program order has completed its access."""
        m = self._unexecuted_stores.minimum()
        return m is None or m >= seq

    def producer_pending(self, seq) -> bool:
        """The load's producing store exists and has not issued yet.

        Once a store has issued, its address and data sit in the store
        queue/ARB and a later load can be satisfied by forwarding, so
        "pending" ends at issue, not at completion.
        """
        producer = self.producers.get(seq)
        return producer is not None and not self.issued[producer]

    @property
    def head_task(self) -> int:
        """Index of the oldest uncommitted task."""
        return self._head

    def task_pc_at(self, task_id) -> Optional[int]:
        """Task PC of the task at a given position (ESYNC's path probe)."""
        if 0 <= task_id < self.n_tasks:
            return self.task_pcs[task_id]
        return None

    def squashed_seqs(self, first_seq):
        """All dispatched instruction seqs at or after *first_seq*."""
        first_task = self.task_of[first_seq]
        for t in range(first_task, self._next_dispatch):
            for seq in self.tasks[t]:
                if seq >= first_seq:
                    yield seq

    def classify_load(self, seq, bucket):
        """Buffer a Table-8 classification until the load's task commits."""
        self._pending_class[seq] = bucket

    # ------------------------------------------------------------------
    # simulation
    # ------------------------------------------------------------------

    def run(self) -> SpeculationStats:
        """Run the simulation on the configured kernel.

        ``config.kernel == "batched"`` (the default) runs the columnar
        kernel (:mod:`repro.multiscalar.batched`) for the oracle register
        model, telemetry on or off.  ``kernel == "cycle"`` and the
        speculative register models, which issue on stale values that
        the batched kernel's wake plans do not track, run the per-cycle
        reference scan below.  Results are bit-identical across kernels
        — ``tests/multiscalar/test_kernel_differential.py`` enforces it.
        """
        if self.config.kernel == "batched" and self.config.register_speculation == "oracle":
            from repro.multiscalar.batched import run_batched

            return run_batched(self)
        return self._run_cycle()

    def _begin_run(self):
        """Create the per-run state both kernels share and bind the policy.

        Policies, the sanitizer, the squash ledger and the squash path
        read these attributes; the batched kernel aliases them to locals.
        """
        cfg = self.config
        n = self.n

        self.done: List[Optional[int]] = [None] * n
        self.issued = [False] * n
        self.issue_time: List[Optional[int]] = [None] * n
        self._completed = [False] * n  # completion event processed
        self._epoch = [0] * n
        self._reg_spec_mode = cfg.register_speculation
        self._reg_learned = set()  # (producer PC, consumer PC) known dependent
        self._events: List[tuple] = []  # (time, seq, epoch)
        self._pending_class: Dict[int, str] = {}
        self._issue_floor = [0] * self.n_tasks  # re-issue gate after squash

        self._unissued_stores = _LazyMinSet(self.all_store_seqs)
        self._unexecuted_stores = _LazyMinSet(self.all_store_seqs)
        self._unknown_addr_stores = _LazyMinSet(self.all_store_seqs)
        self._store_perform = [0] * n  # time a store's data enters the ARB

        self._dispatch_time: List[Optional[int]] = [None] * self.n_tasks
        self._fetch_time: Dict[int, int] = {}
        self._icaches = (
            [InstructionCache() for _ in range(cfg.stages)]
            if cfg.model_icache
            else None
        )
        self._remaining = [len(seqs) for seqs in self.tasks]
        self._task_unissued: Dict[int, List[int]] = {}
        # unissued entries per task.  The _task_unissued lists are
        # compacted lazily, so their length overstates the real
        # population; this counter is the authoritative one.
        self._task_live = [0] * self.n_tasks
        self._head = 0
        self._next_dispatch = 0
        self._last_dispatch_time = -cfg.dispatch_latency
        self._pending_correct = [True] * (self.n_tasks + 1)

        self.sequencer = PathBasedTaskPredictor(history=cfg.predictor_history)
        self._load_first_attempt: Dict[int, int] = {}
        # kernel hooks: the batched kernel installs callbacks that drop
        # its parked entries and scan memos; the per-cycle scan has none
        self._wake_hook = None
        self._squash_hook = None
        if self._tel_on:
            trace_sink = self.telemetry.trace
            for stage in range(cfg.stages):
                trace_sink.thread_name(stage, "stage %d" % stage)

        # per-class limits as a list indexed by fu_code
        self._fu_limits = [cfg.fu_counts[cls] for cls in FU_ORDER]
        self.policy.bind(self)

    def _finish_run(self, now) -> SpeculationStats:
        self.stats.cycles = now
        self.stats.control_mispredictions = self.sequencer.mispredictions
        if self._tel_on:
            self._publish_run_metrics()
            self.policy.publish_telemetry(self.telemetry)
        return self.stats

    def _run_cycle(self) -> SpeculationStats:
        """The per-cycle reference scan: every in-flight stage is
        rescanned every cycle it may issue."""
        self._begin_run()
        latencies = [self.config.fu_latencies[cls] for cls in FU_ORDER]
        # the register maps only this scan reads, bound once per run
        # (the index builds them on first access)
        self._src_operands = self.src_operands
        self._reg_dependents = self.reg_dependents
        self._task_writesets = self.task_writesets

        now = 0
        idle_cycles = 0
        while self._head < self.n_tasks:
            progressed = False
            progressed |= self._process_events(now)
            progressed |= self._try_dispatch(now)
            progressed |= self._issue_phase(now, latencies)
            progressed |= self._try_commit(now)
            if self._head >= self.n_tasks:
                break
            if progressed:
                idle_cycles = 0
                now += 1
                continue
            next_time = self._next_event_time(now)
            if next_time is not None and next_time > now:
                now = next_time
                idle_cycles = 0
            else:
                now += 1
                idle_cycles += 1
                if idle_cycles > 100_000:
                    raise SimulationError(
                        "no progress for %d cycles at t=%d (head task %d of %d)"
                        % (idle_cycles, now, self._head, self.n_tasks)
                    )
        return self._finish_run(now)

    def _publish_run_metrics(self):
        """End-of-run gauges (simulated-time totals and machine shape)."""
        metrics = self.telemetry.metrics
        stats = self.stats
        metrics.gauge("sim.cycles").set(stats.cycles)
        metrics.gauge("sim.ipc").set(round(stats.ipc, 4))
        metrics.gauge("sim.tasks_committed").set(stats.tasks_committed)
        metrics.gauge("sim.committed_instructions").set(stats.committed_instructions)
        metrics.gauge("sim.squashed_instructions").set(stats.squashed_instructions)
        metrics.gauge("sim.control_mispredictions").set(stats.control_mispredictions)
        metrics.gauge("config.stages").set(self.config.stages)
        metrics.gauge("policy.name").set(self.policy.name)

    # -- dispatch ----------------------------------------------------------

    def _dispatch_ready_time(self, task_id, now) -> Optional[int]:
        base = self._last_dispatch_time + self.config.dispatch_latency
        if self._pending_correct[task_id]:
            return base
        last_prev = self.tasks[task_id - 1][-1]
        resolve = self.done[last_prev]
        if resolve is None or not self.issued[last_prev]:
            return None  # misprediction not resolved yet
        return max(base, resolve + self.config.mispredict_penalty)

    def _try_dispatch(self, now) -> bool:
        progressed = False
        while (
            self._next_dispatch < self.n_tasks
            and self._next_dispatch - self._head < self.config.stages
        ):
            task_id = self._next_dispatch
            ready = self._dispatch_ready_time(task_id, now)
            if ready is None or ready > now:
                break
            self._dispatch_time[task_id] = now
            self._last_dispatch_time = now
            self._task_unissued[task_id] = list(self.tasks[task_id])
            self._task_live[task_id] = len(self.tasks[task_id])
            if self._icaches is not None:
                self._schedule_fetch(task_id, now)
            self._next_dispatch += 1
            self.policy.on_task_dispatched(task_id, now)
            if task_id + 1 < self.n_tasks:
                correct = self.sequencer.record(self.task_pcs[task_id + 1])
                self._pending_correct[task_id + 1] = correct
            progressed = True
        return progressed

    # -- issue -------------------------------------------------------------

    def _reg_avail(self, producer, task_id) -> Optional[int]:
        """When *producer*'s value is usable in *task_id*, or None."""
        done = self.done[producer]
        if done is None:
            return None
        producer_task = self.task_of[producer]
        if producer_task != task_id:
            done += self.config.ring_hop_latency * (task_id - producer_task)
        return done

    def _may_speculate_register(self, producer, consumer_seq, task_id) -> bool:
        """Is the consumer allowed to use a stale value for this operand?"""
        mode = self._reg_spec_mode
        if mode in ("oracle", "conservative"):
            return False
        if self.task_of[producer] == task_id:
            return False  # intra-task dependences use the scoreboard
        if mode == "always":
            return True
        pair = (self._c_pc[producer], self._c_pc[consumer_seq])
        return pair not in self._reg_learned

    def _maybe_writer_stall(self, reg, producer, task_id, now) -> bool:
        """Conservative forwarding: stall while any earlier in-flight task
        whose static write-set contains *reg* — and which is not the true
        producer's task — has not resolved its path yet."""
        first = self._head
        if producer is not None:
            first = max(first, self.task_of[producer] + 1)
        for other in range(first, task_id):
            if reg not in self._task_writesets.get(self.task_pcs[other], ()):
                continue
            last_seq = self.tasks[other][-1]
            done = self.done[last_seq]
            if done is None or done > now:
                return True
        return False

    def _source_ready_time(self, seq, task_id, now) -> int:
        ready = 0
        conservative = self._reg_spec_mode == "conservative"
        for reg, producer, prev in self._src_operands[seq]:
            if conservative and self._maybe_writer_stall(reg, producer, task_id, now):
                return -1
            if producer is None:
                continue  # value comes with the committed state
            avail = self._reg_avail(producer, task_id)
            if avail is None or avail > now:
                if not self._may_speculate_register(producer, seq, task_id):
                    return -1 if avail is None else (avail if avail > ready else ready)
                # consume the stale (penultimate) value instead
                if prev is None:
                    continue  # stale value comes with committed state
                stale = self._reg_avail(prev, task_id)
                if stale is None:
                    return -1  # not even the stale value exists yet
                avail = stale
            if avail > ready:
                ready = avail
        return ready

    def _schedule_fetch(self, task_id, dispatch_time):
        """Walk the task's instruction stream through the stage's i-cache
        and record each instruction's absolute fetch time."""
        cfg = self.config
        icache = self._icaches[task_id % cfg.stages]
        cursor = dispatch_time
        seqs = self.tasks[task_id]
        c_pc = self._c_pc
        block = cfg.fetch_width
        last_line = None
        for group_start in range(0, len(seqs), block):
            pc_addr = c_pc[seqs[group_start]] * 4
            line = pc_addr // icache.config.block_bytes
            if line != last_line:
                latency = icache.access(pc_addr)
                cursor += latency - 1
                last_line = line
            for seq in seqs[group_start : group_start + block]:
                self._fetch_time[seq] = cursor
            cursor += 1

    def _resolve_store_address(self, seq, task_id, now):
        """Mark a store's address as known once its base register is ready.

        The caller (:meth:`_issue_phase`) has already established that
        the store is fetched and past its stage's issue floor.
        """
        producer = self.addr_producer.get(seq)
        if producer is not None:
            avail = self._reg_avail(producer, task_id)
            if avail is None or avail + self.config.agen_latency > now:
                return
        self._unknown_addr_stores.discard(seq)

    def _intra_task_gate(self, seq, addr, now) -> bool:
        """Intra-task dependences are never speculated (Section 5)."""
        unknown = self._unknown_addr_stores
        c_addr = self._c_addr
        done_arr = self.done
        for store_seq in self.prior_task_stores.get(seq, ()):
            if store_seq in unknown:
                return False
            if c_addr[store_seq] == addr:
                done = done_arr[store_seq]
                if done is None or done > now:
                    return False
        return True

    def _observed_may_issue(self, seq, task_id, now) -> bool:
        """``policy.may_issue_load`` with the load-stall telemetry.

        ``policy.load_denials`` counts denied load *attempts*: a load is
        counted when the policy denies it at its first consultation since
        it last issued or was squashed.  A granted consultation always
        issues, so later denials of the same attempt add nothing, and
        the count does not depend on how often a kernel re-asks.
        """
        first = self._load_first_attempt.setdefault(seq, now)
        metrics = self.telemetry.metrics
        if not self.policy.may_issue_load(seq, now):
            if first == now:
                metrics.counter("policy.load_denials").inc()
            return False
        metrics.counter("policy.load_grants").inc()
        del self._load_first_attempt[seq]
        wait = now - first
        metrics.histogram("load.wait_cycles").observe(wait)
        if wait > 0:
            pc = self._c_pc[seq]
            self.telemetry.trace.complete(
                "load stall pc=%d" % pc,
                ts=first,
                dur=wait,
                tid=task_id % self.config.stages,
                cat="stall",
                args={"seq": seq, "pc": pc, "task": task_id},
            )
        return True

    def _try_issue(self, seq, task_id, now, counters, latencies) -> bool:
        # fetch and issue-floor gating already happened in _issue_phase
        src_ready = self._source_ready_time(seq, task_id, now)
        if src_ready < 0 or src_ready > now:
            return False
        fu = self._c_fu[seq]
        if counters[fu] >= self._fu_limits[fu]:
            return False
        if self._c_is_load[seq]:
            if not self._intra_task_gate(seq, self._c_addr[seq], now):
                return False
            if self._tel_on:
                if not self._observed_may_issue(seq, task_id, now):
                    return False
            elif not self.policy.may_issue_load(seq, now):
                return False
        if self._c_is_memory[seq]:
            completion = self.cache.access(
                self._c_addr[seq], now + self.config.agen_latency
            )
        else:
            completion = now + latencies[fu]
        counters[fu] += 1
        self.issued[seq] = True
        self.issue_time[seq] = now
        self.done[seq] = completion
        if self._c_is_store[seq]:
            self._unissued_stores.discard(seq)
            self._unknown_addr_stores.discard(seq)
            self._store_perform[seq] = now + 1
            self.policy.on_store_issued(seq, now)
        heapq.heappush(self._events, (completion, seq, self._epoch[seq]))
        return True

    def _issue_phase(self, now, latencies) -> bool:
        progressed = False
        cfg = self.config
        rs_window = cfg.rs_window
        issue_width = cfg.issue_width
        unknown_addr = self._unknown_addr_stores
        issued_flags = self.issued
        live = self._task_live
        fetch_width = cfg.fetch_width
        index_in_task = self.index_in_task
        c_is_store = self._c_is_store
        fetch_times = self._fetch_time if self._icaches is not None else None
        for task_id in range(self._head, self._next_dispatch):
            dispatch = self._dispatch_time[task_id]
            if dispatch > now or not live[task_id] or self._issue_floor[task_id] > now:
                continue
            unissued = self._task_unissued[task_id]
            counters = [0] * NUM_FU_CLASSES
            issued_count = 0
            considered = 0
            # fetch times are nondecreasing in program order within a
            # task, so the first unfetched entry ends the scan; without
            # an i-cache, entries at index >= fetch_limit are unfetched
            fetch_limit = (now - dispatch + 1) * fetch_width
            for seq in unissued:
                if issued_flags[seq]:
                    continue  # dead entry awaiting compaction
                considered += 1
                if fetch_times is None:
                    if index_in_task[seq] >= fetch_limit:
                        break
                elif fetch_times.get(seq, dispatch) > now:
                    break
                if considered <= rs_window and c_is_store[seq] and seq in unknown_addr:
                    self._resolve_store_address(seq, task_id, now)
                if considered > rs_window or issued_count >= issue_width:
                    break
                if self._try_issue(seq, task_id, now, counters, latencies):
                    issued_count += 1
                    progressed = True
            if issued_count:
                remaining = live[task_id] - issued_count
                live[task_id] = remaining
                if len(unissued) - remaining >= 64 and remaining * 2 < len(unissued):
                    # mostly dead: compact so later scans stay short
                    self._task_unissued[task_id] = [
                        s for s in unissued if not issued_flags[s]
                    ]
        return progressed

    def note_load_wake(self, seq):
        """Policy callback: a store signal will release load *seq* next
        cycle.  The batched kernel unparks the load; the per-cycle scan
        asks again anyway."""
        if self._wake_hook is not None:
            self._wake_hook(seq)

    # -- completion events ---------------------------------------------------

    def _process_events(self, now) -> bool:
        progressed = False
        events = self._events
        epochs = self._epoch
        issued = self.issued
        completed = self._completed
        remaining = self._remaining
        task_of = self.task_of
        c_is_store = self._c_is_store
        reg_violations = self._reg_spec_mode in ("always", "predict")
        while events and events[0][0] <= now:
            time, seq, epoch = heapq.heappop(events)
            if epoch != epochs[seq] or not issued[seq]:
                continue  # stale (squashed) event
            progressed = True
            completed[seq] = True
            remaining[task_of[seq]] -= 1
            if c_is_store[seq]:
                self._unexecuted_stores.discard(seq)
                violator = self._find_violation(seq, time)
                if violator is not None:
                    self._handle_violation(seq, violator, time)
            if reg_violations and self._c_rd[seq] > 0:
                violator = self._find_register_violation(seq, time)
                if violator is not None:
                    self._handle_register_violation(seq, violator, time)
        return progressed

    def _find_register_violation(self, producer, time) -> Optional[int]:
        """Earliest consumer that issued before this producer's value
        could have reached it (it used a stale register value)."""
        producer_task = self.task_of[producer]
        for consumer in self._reg_dependents.get(producer, ()):
            consumer_task = self.task_of[consumer]
            if consumer_task <= producer_task:
                continue
            if consumer_task >= self._next_dispatch:
                break
            if consumer_task < self._head:
                continue
            issued_at = self.issue_time[consumer]
            if not self.issued[consumer] or issued_at is None:
                continue
            real_avail = time + self.config.ring_hop_latency * (
                consumer_task - producer_task
            )
            if issued_at < real_avail:
                return consumer
        return None

    def squash_for_value_mismatch(self, load_seq, now):
        """A value-speculated load was verified wrong: squash it and
        everything younger (used by the VSYNC extension policy)."""
        self.stats.value_mis_speculations += 1
        restart = now + self.config.squash_penalty
        self._squash_from_seq(load_seq, restart)

    def _handle_register_violation(self, producer, consumer, time):
        self.stats.register_mis_speculations += 1
        if self._tel_on:
            self.telemetry.metrics.counter("sim.register_mis_speculations").inc()
            self.telemetry.trace.instant(
                "register violation",
                ts=time,
                tid=self.task_of[consumer] % self.config.stages,
                cat="violation",
                args={
                    "producer_pc": self._c_pc[producer],
                    "consumer_pc": self._c_pc[consumer],
                },
            )
        pair = (self._c_pc[producer], self._c_pc[consumer])
        self._reg_learned.add(pair)
        restart = time + self.config.squash_penalty
        self._squash_from_seq(consumer, restart)

    def _find_violation(self, store_seq, time) -> Optional[int]:
        """Earliest load violated by this store's execution, if any."""
        store_task = self.task_of[store_seq]
        for load_seq in self.dependents.get(store_seq, ()):
            load_task = self.task_of[load_seq]
            if load_task <= store_task:
                continue
            if load_task >= self._next_dispatch:
                break  # not dispatched yet; later dependents are younger
            if load_task < self._head:
                continue  # already committed (cannot happen; guard anyway)
            done = self.done[load_seq]
            if done is not None and done < self._store_perform[store_seq]:
                # the load performed before the store's data entered the
                # ARB: it read stale data.  Loads completing at or after
                # the store's perform time are satisfied by forwarding.
                if self.policy.absolves_violation(store_seq, load_seq):
                    continue  # e.g. a correctly value-predicted load
                return load_seq
        return None

    def _handle_violation(self, store_seq, load_seq, time):
        self.stats.mis_speculations += 1
        self.stats.breakdown.ny += 1
        if self._tel_on:
            c_pc = self._c_pc
            self.telemetry.metrics.counter("sim.mis_speculations").inc()
            self.telemetry.trace.instant(
                "violation store@%d->load@%d"
                % (c_pc[store_seq], c_pc[load_seq]),
                ts=time,
                tid=self.task_of[load_seq] % self.config.stages,
                cat="violation",
                args={
                    "store_pc": c_pc[store_seq],
                    "load_pc": c_pc[load_seq],
                    "distance": self.task_of[load_seq] - self.task_of[store_seq],
                },
            )
        self.policy.on_violation(store_seq, load_seq, time)
        if self._sanitizer is not None:
            # before the squash: the issued flags still describe the
            # speculative window the sanitizer inspects
            self._sanitizer.on_violation(store_seq, load_seq, time)
        if self._squash_ledger is not None:
            # after the policy recorded the mis-speculation (so MDPT
            # state is the squash-time state) and before the squash
            self._squash_ledger.on_violation(store_seq, load_seq, time)
        restart = time + self.config.squash_penalty
        self._squash_from_seq(load_seq, restart)
        # the store itself survives; let it signal for the re-execution
        self.policy.on_store_executed(store_seq, time)

    def _squash_from_seq(self, first_seq, restart):
        """Squash the violating load and every younger instruction.

        Per the paper (Section 4.3), the instructions *following the
        load* are squashed and re-issued: older instructions of the
        load's own task keep their results, so the task's tail — often
        including the producers of younger tasks' recurrences —
        re-executes immediately.  Younger tasks restart staggered by the
        sequencer's re-walk rate.
        """
        cfg = self.config
        first_task = self.task_of[first_seq]
        squashed_before = self.stats.squashed_instructions
        c_is_store = self._c_is_store
        for task_id in range(first_task, self._next_dispatch):
            reset_any = False
            for seq in self.tasks[task_id]:
                if seq < first_seq:
                    continue
                reset_any = True
                if self.issued[seq]:
                    self.stats.squashed_instructions += 1
                if self._completed[seq]:
                    self._remaining[task_id] += 1
                    self._completed[seq] = False
                self._epoch[seq] += 1
                self.issued[seq] = False
                self.issue_time[seq] = None
                self.done[seq] = None
                self._pending_class.pop(seq, None)
                if self._tel_on:
                    self._load_first_attempt.pop(seq, None)
                if c_is_store[seq]:
                    self._unissued_stores.add(seq)
                    self._unexecuted_stores.add(seq)
                    self._unknown_addr_stores.add(seq)
            if not reset_any:
                continue
            rebuilt = [s for s in self.tasks[task_id] if not self.issued[s]]
            self._task_unissued[task_id] = rebuilt
            self._task_live[task_id] = len(rebuilt)
            offset = task_id - first_task
            self._issue_floor[task_id] = restart + offset * cfg.squash_stagger
        if self._squash_hook is not None:
            self._squash_hook(first_seq)
        if self._tel_on:
            depth = self.stats.squashed_instructions - squashed_before
            self.telemetry.metrics.counter("sim.squashes").inc()
            self.telemetry.metrics.histogram("squash.depth").observe(depth)
            self.telemetry.trace.instant(
                "squash from seq %d" % first_seq,
                ts=restart,
                tid=first_task % cfg.stages,
                cat="squash",
                args={"first_seq": first_seq, "squashed_instructions": depth},
            )
        self.policy.on_squash(first_seq, restart)

    # -- commit ---------------------------------------------------------------

    def _try_commit(self, now) -> bool:
        progressed = False
        c_is_load = self._c_is_load
        c_is_store = self._c_is_store
        while self._head < self.n_tasks and self._remaining[self._head] == 0:
            task_id = self._head
            stats = self.stats
            breakdown = stats.breakdown
            for seq in self.tasks[task_id]:
                stats.committed_instructions += 1
                if c_is_load[seq]:
                    stats.committed_loads += 1
                    bucket = self._pending_class.pop(seq, "nn")
                    setattr(breakdown, bucket, getattr(breakdown, bucket) + 1)
                elif c_is_store[seq]:
                    stats.committed_stores += 1
            stats.tasks_committed += 1
            if self._tel_on:
                self._record_task_span(task_id, now)
            self.policy.on_task_committed(task_id, now)
            self._head += 1
            progressed = True
        return progressed

    def _record_task_span(self, task_id, now):
        """Trace the committed task *task_id* as one span on its stage."""
        dispatch = self._dispatch_time[task_id]
        self.telemetry.trace.complete(
            "task %d" % task_id,
            ts=dispatch,
            dur=max(1, now - dispatch),
            tid=task_id % self.config.stages,
            cat="task",
            args={
                "task_pc": self.task_pcs[task_id],
                "instructions": len(self.tasks[task_id]),
            },
        )

    # -- time management --------------------------------------------------------

    def _next_event_time(self, now) -> Optional[int]:
        candidates = []
        events = self._events
        while events:
            time, seq, epoch = events[0]
            if epoch != self._epoch[seq] or not self.issued[seq]:
                heapq.heappop(events)
                continue
            candidates.append(time)
            break
        if (
            self._next_dispatch < self.n_tasks
            and self._next_dispatch - self._head < self.config.stages
        ):
            ready = self._dispatch_ready_time(self._next_dispatch, now)
            if ready is not None:
                candidates.append(ready)
        for task_id in range(self._head, self._next_dispatch):
            dt = self._dispatch_time[task_id]
            if dt is not None and dt > now:
                candidates.append(dt)
            floor = self._issue_floor[task_id]
            if floor > now and self._task_live[task_id]:
                candidates.append(floor)
        future = [c for c in candidates if c > now]
        return min(future) if future else None


def simulate(trace, config=None, policy=None) -> SpeculationStats:
    """Convenience wrapper: run one simulation and return its stats."""
    return MultiscalarSimulator(trace, config=config, policy=policy).run()
