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
"""

from __future__ import annotations

from typing import List, Optional

from repro.config import SimConfig
from repro.host.scheduler import Scheduler
from repro.host.threads import ThreadContext, Window
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
        # Per-window MLP: bounded by the L1 MSHRs and by the workload's
        # dependence-limited parallelism (pointer chasing exposes little).
        self._mlp = max(1, min(cpu.l1_mshrs, getattr(system, "workload_mlp", 8)))
        self.thread: Optional[ThreadContext] = None
        #: A whole window is served in one system call: from host DRAM
        #: (DRAM-only runs have no delay hints) or through the window loop.
        self._dram_only = config.dram_only
        self._sched_runtime = 0.0  # time on core since last schedule
        self._parked = False
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

    def wake(self) -> None:
        """Called by the scheduler when work appears for a parked core."""
        if not self._parked:
            return
        self._parked = False
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
        self._parked = True
        self.thread = None
        self._scheduler.park_core(self)

    # -- execution -------------------------------------------------------------

    def _run_slice(self) -> None:
        thread = self.thread
        if thread is None:
            self._park()
            return
        now = self._engine.now

        if self._pending_shootdown_ns > 0.0:
            cost = self._pending_shootdown_ns
            self._pending_shootdown_ns = 0.0
            self._system.stats.add_memory_stall(cost)
            self._engine.schedule(cost, self._run_slice)
            return

        window = thread.next_window(self._rob_instructions, self._mlp)
        if window is None:
            self._finish_thread(thread)
            return

        just_resumed = thread.just_resumed
        thread.just_resumed = False
        ops = window.ops
        compute_ns = window.instructions * self._cycle_ns / self._ipc

        if self._dram_only:
            completes = self._system.dram_window_access(ops, now, thread.tid)
            self._retire(thread, window.instructions, completes, compute_ns, now)
            return
        completes, trigger = self._system.window_access(
            ops, now, self.core_id, thread.tid, just_resumed
        )
        if trigger is None:
            self._retire(thread, window.instructions, completes, compute_ns, now)
            return
        executed_instr = 0
        for op in ops[: len(completes) + 1]:
            executed_instr += op[0]
        self._context_switch(
            thread, window, completes, trigger, executed_instr, now
        )

    def _retire(
        self,
        thread: ThreadContext,
        instructions: int,
        completes: List[float],
        compute_ns: float,
        now: float,
    ) -> None:
        """Retire a whole window whose accesses complete at ``completes``.

        Every completion is later than ``now``, so the window's wall time
        is ``max(compute_ns, slowest - now)``; the comparisons are spelled
        out inline (ties pick equal floats, so this is ``max`` exactly).
        """
        wall = compute_ns
        for complete in completes:
            if complete - now > wall:
                wall = complete - now
        stats = self._system.stats
        if stats.enabled:
            stats.instructions += instructions
            stats.compute_ns += compute_ns
            stats.memory_stall_ns += wall - compute_ns
            stats.offchip_latency.record_window(completes, now)
        thread.runtime_ns += wall
        thread.instructions_done += instructions
        self._sched_runtime += wall
        end = now + wall

        # Quantum preemption keeps oversubscribed runs fair even when the
        # device never asks for a switch.
        if (
            self._sched_runtime >= self._quantum_ns
            and self._scheduler.runnable() > 0
        ):
            self._yield_thread(thread, end, self._config.os.context_switch_ns)
            return
        self._engine.schedule_at(end, self._run_slice)

    def _context_switch(
        self,
        thread: ThreadContext,
        window: Window,
        completes: List[float],
        triggering: AccessResult,
        executed_instr: int,
        now: float,
    ) -> None:
        """Take the Long Delay Exception at op ``len(completes)`` of
        ``window``; ``completes`` are the older ops' completion times."""
        compute_ns = executed_instr * self._cycle_ns / self._ipc
        # In-order retirement: the exception fires after every older op in
        # the window has completed and the NDR hint has arrived.
        older_done = max(completes, default=now)
        exception_ns = max(now + compute_ns, older_done, triggering.hint_arrival_ns)

        stats = self._system.stats
        if stats.enabled:
            stats.instructions += executed_instr
            stats.compute_ns += compute_ns
            stats.memory_stall_ns += max(0.0, exception_ns - now - compute_ns)
            stats.offchip_latency.record_window(completes, now)
        # The triggering access is squashed: reverse its AMAT accounting.
        stats.unrecord_access(triggering.request_class, triggering.breakdown)

        thread.squash_after(len(completes), window)
        thread.instructions_done += executed_instr
        thread.runtime_ns += exception_ns - now
        thread.just_resumed = True
        switch_cost = self._system.switch_cost_ns
        self._yield_thread(thread, exception_ns, switch_cost)

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
