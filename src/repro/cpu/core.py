"""Interval-model CPU cores.

Each core executes ROB-bounded *windows* of its current thread's trace:
the window's non-memory instructions run at peak IPC while its memory
operations issue concurrently (memory-level parallelism bounded by the
per-core MSHRs), so the exposed stall of a window is
``max(0, slowest_access - compute_time)``.  This is the classic interval
approximation of an out-of-order core: it preserves the stall accounting
that Fig. 4's memory/compute boundedness and all the paper's end-to-end
results are built on, at a tiny fraction of cycle-accurate cost.

The coordinated context switch (§III-A) is implemented at retire
semantics: when an access returns a ``SkyByte-Delay`` hint, the exception
fires only once every older operation in the window has completed (in-
order retirement), the triggering op is saved for replay, younger ops are
squashed back into the trace, the OS scheduler picks the next thread, and
the core pays the measured 2 us switch overhead.  Squashed accesses are
excluded from AMAT, as in the paper.

Both run in one call each: :meth:`Core._run_slice` cuts a window from
the trace's window plan (the replay window included), issues it and
retires it, and :meth:`Core._context_switch` takes the exception --
retire, squash (a rewind of the thread's trace cursor), AMAT reversal,
switch accounting and re-queue -- leaving only the pick of the next
thread to :meth:`Scheduler.pick_next`.
"""

from __future__ import annotations

from heapq import heappush
from typing import List, Optional, Sequence

from repro.config import SimConfig
from repro.host.scheduler import Scheduler
from repro.host.threads import ThreadContext
from repro.sim.engine import Engine
from repro.ssd.interface import AccessResult


class Core:
    """One CPU core running threads handed out by the OS scheduler."""

    def __init__(
        self,
        core_id: int,
        config: SimConfig,
        engine: Engine,
        scheduler: Scheduler,
        system,
    ) -> None:
        self.core_id = core_id
        self._config = config
        self._engine = engine
        self._scheduler = scheduler
        self._system = system
        cpu = config.cpu
        self._cycle_ns = cpu.cycle_ns
        self._ipc = cpu.peak_ipc
        self._rob_instructions = cpu.rob_entries
        self._quantum_ns = config.os.quantum_ns
        #: Kernel switch for SkyByte designs, user-level for AstriFlash.
        self._switch_cost_ns = system.switch_cost_ns
        # Per-window MLP: bounded by the L1 MSHRs and by the workload's
        # dependence-limited parallelism (pointer chasing exposes little).
        self._mlp = max(1, min(cpu.l1_mshrs, getattr(system, "workload_mlp", 8)))
        #: The plan key of this core's windows (see ThreadContext).
        self._window_key = (self._rob_instructions, self._mlp)
        self.thread: Optional[ThreadContext] = None
        #: A whole window is served in one system call: from host DRAM
        #: (DRAM-only runs have no delay hints) or through the window loop.
        self._dram_only = config.dram_only
        self._sched_runtime = 0.0  # time on core since last schedule
        #: Pending TLB-shootdown cost to absorb at the next window.
        self._pending_shootdown_ns = 0.0

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Grab an initial thread and begin executing."""
        self.thread = self._scheduler.pick_next()
        if self.thread is None:
            self._park()
        else:
            self._engine.schedule(0.0, self._run_slice)

    def add_tlb_shootdown(self, cost_ns: float) -> None:
        """Migration completions interrupt every core briefly (§V: "a TLB
        shootdown for all cores when a page finishes migration")."""
        self._pending_shootdown_ns += cost_ns

    def _park(self) -> None:
        """Idle for the rest of the run.  Threads only ever leave the run
        queue (a switched-out thread goes back in and one comes out), so
        an empty queue never refills and no parked core is woken."""
        self.thread = None

    # -- execution -------------------------------------------------------------

    def _run_slice(self) -> None:
        """Serve one window: cut it, issue its accesses, retire it and
        queue the next slice, in one call.

        Once the plan is built and no capture tap is installed, the
        window is cut here from the trace's window plan: the common
        window with two plan lookups, and the window that replays a
        squashed op with the replay op first, then at most ``mlp - 1``
        trace records within the ROB budget (the plan's at-least-one
        clamp does not apply after a replay).  The first window, a tap
        and exhaustion go through :meth:`ThreadContext.next_window`.
        The retire is one pass over the completion times
        (:meth:`LatencyHistogram.record_window` also returns the longest
        latency), and the next slice is pushed onto the engine heap with
        the key :meth:`Engine.schedule_at` would queue: ``end >= now``,
        so there is nothing to clamp.
        """
        thread = self.thread
        if thread is None:
            self._park()
            return
        engine = self._engine
        now = engine._now

        if self._pending_shootdown_ns > 0.0:
            # Absorb the shootdowns as a stall of their own slice (the
            # stats and engine calls inlined: the cost is positive).
            cost = self._pending_shootdown_ns
            self._pending_shootdown_ns = 0.0
            stats = self._system.stats
            if stats.enabled:
                stats.memory_stall_ns += cost
            engine._seq = seq = engine._seq + 1
            heappush(engine._queue, (now + cost, seq, self._run_slice))
            return

        plan = thread._plan
        pos = thread.pos
        replay = thread.replay
        if (
            plan is not None
            and pos < len(plan)
            and thread.on_fetch is None
            and thread._plan_key == self._window_key
        ):
            take = plan[pos]
            cum = thread._cum
            if replay is None:
                end = pos + take
                ops = thread._ops[pos:end]
                replayed = False
            else:
                thread.replay = None
                if take >= self._mlp:
                    take = self._mlp - 1
                elif (
                    take == 1
                    and cum[pos + 1] - cum[pos] > self._rob_instructions
                ):
                    take = 0
                end = pos + take
                ops = [replay]
                ops.extend(thread._ops[pos:end])
                replayed = True
            instructions = cum[end] - cum[pos]
            thread.pos = end
        else:
            replayed = replay is not None
            window = thread.next_window(self._rob_instructions, self._mlp)
            if window is None:
                self._finish_thread(thread)
                return
            instructions, ops = window

        just_resumed = thread.just_resumed
        thread.just_resumed = False
        compute_ns = instructions * self._cycle_ns / self._ipc
        system = self._system
        if self._dram_only:
            completes = system.dram_window_access(ops, now, thread.tid)
        else:
            completes, trigger = system.window_access(
                ops, now, self.core_id, thread.tid, just_resumed
            )
            if trigger is not None:
                self._context_switch(thread, ops, completes, trigger, now,
                                     replayed)
                return

        # Retire: every completion is later than ``now``, so the wall is
        # ``max(compute_ns, slowest - now)`` (ties pick equal floats).
        stats = system.stats
        wall = compute_ns
        if stats.enabled:
            longest = stats.offchip_latency.record_window(completes, now)
            if longest > wall:
                wall = longest
            stats.instructions += instructions
            stats.compute_ns += compute_ns
            stats.memory_stall_ns += wall - compute_ns
        else:
            for complete in completes:
                if complete - now > wall:
                    wall = complete - now
        thread.runtime_ns += wall
        self._sched_runtime += wall
        end_ns = now + wall

        # Quantum preemption keeps oversubscribed runs fair even when the
        # device never asks for a switch.  A thread whose last window this
        # was is not preempted: the run queue drops finished threads, so
        # it would never report done; its next slice finishes it.
        if (self._sched_runtime >= self._quantum_ns and self._scheduler._queue
                and not thread.done):
            self._yield_thread(thread, end_ns, self._config.os.context_switch_ns)
            return
        engine._seq = seq = engine._seq + 1
        heappush(engine._queue, (now + (end_ns - now), seq, self._run_slice))

    def _context_switch(
        self,
        thread: ThreadContext,
        ops: Sequence[int],
        completes: List[float],
        triggering: AccessResult,
        now: float,
        replayed: bool,
    ) -> None:
        """Take the Long Delay Exception at op ``len(completes)`` of the
        window ``ops``, in one body: retire the older ops, squash the
        rest, reverse the triggering access's AMAT accounting, charge
        the switch and hand the core to the next thread.  ``completes``
        are the older ops' completion times; ``replayed`` says the
        window opens with the replayed op of the previous switch.

        The window's trace records end at ``thread.pos``, so the gaps of
        the ops up to the trigger are one prefix-sum difference: ops
        ``0..len(completes)``, without the replay (gap 0)."""
        issued = len(completes)
        first = thread.pos - len(ops)
        cum = thread._cum
        executed_instr = cum[first + issued + 1] - cum[first + replayed]
        compute_ns = executed_instr * self._cycle_ns / self._ipc
        # In-order retirement: the exception fires after every older op in
        # the window has completed and the NDR hint has arrived (with no
        # older op, ``now`` never beats ``now + compute_ns``).
        exception_ns = now + compute_ns
        if triggering.hint_arrival_ns > exception_ns:
            exception_ns = triggering.hint_arrival_ns
        if issued:
            older_done = max(completes)
            if older_done > exception_ns:
                exception_ns = older_done

        switch_cost = self._switch_cost_ns
        stats = self._system.stats
        if stats.enabled:
            stats.instructions += executed_instr
            stats.compute_ns += compute_ns
            stats.memory_stall_ns += max(0.0, exception_ns - now - compute_ns)
            stats.offchip_latency.record_window(completes, now)
            # The triggering access is squashed: reverse its AMAT
            # accounting (the device-side effects really happened).
            counts = stats.request_counts
            request_class = triggering.request_class
            if counts.get(request_class, 0) > 0:
                counts[request_class] -= 1
            breakdown = triggering.breakdown
            stats.amat_host_dram_ns -= breakdown.get("host_dram", 0.0)
            stats.amat_protocol_ns -= breakdown.get("protocol", 0.0)
            stats.amat_indexing_ns -= breakdown.get("indexing", 0.0)
            stats.amat_ssd_dram_ns -= breakdown.get("ssd_dram", 0.0)
            stats.amat_flash_ns -= breakdown.get("flash", 0.0)
            if stats.amat_accesses > 0:
                stats.amat_accesses -= 1
            stats.context_switch_ns += switch_cost
            stats.context_switches += 1

        # Squash: the triggering op is saved for replay and every younger
        # op goes back to the trace (they are the slice just before
        # ``pos``, fetched in order).
        thread.replay = ops[issued]
        thread.pos -= len(ops) - issued - 1
        thread.runtime_ns += exception_ns - now
        thread.runtime_ns += switch_cost
        thread.just_resumed = True

        # Re-queue: a squashed thread has its replay pending, so it is
        # never done and always goes back on the run queue, which is
        # therefore never empty for the pick.
        scheduler = self._scheduler
        scheduler._queue.append(thread)
        self.thread = scheduler.pick_next(prefer_not=thread.tid)
        self._sched_runtime = 0.0
        engine = self._engine
        engine._seq = seq = engine._seq + 1
        heappush(engine._queue, (
            now + (exception_ns + switch_cost - now), seq, self._run_slice))

    def _yield_thread(self, thread: ThreadContext, at_ns: float, switch_cost: float) -> None:
        stats = self._system.stats
        stats.add_context_switch(switch_cost)
        thread.runtime_ns += switch_cost
        self._scheduler.enqueue(thread)
        self.thread = self._scheduler.pick_next(prefer_not=thread.tid)
        self._sched_runtime = 0.0
        if self.thread is None:
            self._park()
            return
        self._engine.schedule_at(at_ns + switch_cost, self._run_slice)

    def _finish_thread(self, thread: ThreadContext) -> None:
        self._system.on_thread_done(thread)
        self.thread = self._scheduler.pick_next()
        self._sched_runtime = 0.0
        if self.thread is None:
            self._park()
        else:
            self._engine.schedule(0.0, self._run_slice)
