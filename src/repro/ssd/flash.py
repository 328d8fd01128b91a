"""NAND flash array timing model.

The flash array is organised as *channels* of chips/dies/planes
(Table II: 16 channels x 8 chips x 8 dies for the paper's device).  Two
resources matter for timing:

* **dies** execute array operations (tR / tProg / tBERS) and overlap with
  each other -- a channel with 64 dies can have 64 programs in flight;
* the **channel bus** serialises page data transfers (a read's page must
  cross the bus after tR; a program's page before tProg).

Commands are dispatched to the earliest-free die of the target channel.
:class:`FlashChannel` also keeps the queued-command counters Algorithm 1
reads, and provides two latency estimators: the paper's literal FIFO
queue-sum (``estimate_read_fifo_ns``, Algorithm 1 lines 5-6) and a
die-aware variant (``estimate_read_ns``) that divides queued work across
the channel's dies -- the natural reading of Algorithm 1 on a die-parallel
channel, and the one the trigger policy uses.

Physical page addresses (PPAs) are dense integers laid out channel-major::

    ppa = channel * pages_per_channel + block_in_channel * pages_per_block
          + page_in_block

so ``channel_of`` and ``block_of`` are pure arithmetic.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.config import DeviceModelConfig, FlashGeometry, FlashTiming
from repro.sim.engine import Engine
from repro.sim.stats import SimStats
from repro.ssd.geometry import GeometryModel

#: Channel bus time to move one 4 KB page (ONFI-class bus, ~5 GB/s).
PAGE_TRANSFER_NS = 800.0

#: Program suspend latency: modern ULL NAND (Z-NAND, XL-Flash) suspends an
#: in-flight program so a read can proceed, costing roughly this much
#: extra before the read's tR starts.  Erases are not suspendable here,
#: so GC keeps its multi-millisecond read-blocking behaviour (§II-C).
PROGRAM_SUSPEND_NS = 2_000.0


class _QueuedChannel:
    """Queued-command counters of one channel (what Algorithm 1 reads),
    shared by the flat and deep channel models.

    Each submit bumps its counter and schedules the bound ``_*_done``
    completion that drops it again, so no per-command closure is built
    unless the caller passes an ``on_done``.
    """

    def __init__(
        self, index: int, timing: FlashTiming, engine: Engine,
        transfer_ns: float,
    ) -> None:
        self.index = index
        self._timing = timing
        self._engine = engine
        self._transfer_ns = transfer_ns
        self.queued_reads = 0
        self.queued_programs = 0
        self.queued_erases = 0

    @property
    def queue_depth(self) -> int:
        """Commands currently in flight on this channel."""
        return self.queued_reads + self.queued_programs + self.queued_erases

    def estimate_read_fifo_ns(self) -> float:
        """Algorithm 1 lines 5-6 verbatim (FIFO queue-sum):
        ``read*(nread+1) + program*nwrite + erase*nerase``."""
        t = self._timing
        return (
            t.read_ns * (self.queued_reads + 1)
            + t.program_ns * self.queued_programs
            + t.erase_ns * self.queued_erases
        )

    def _read_done(self) -> None:
        self.queued_reads -= 1

    def _program_done(self) -> None:
        self.queued_programs -= 1

    def _erase_done(self) -> None:
        self.queued_erases -= 1

    def _track(self, completion: float, done, on_done) -> None:
        """Run ``done`` (then ``on_done``, if any) at ``completion``."""
        if on_done is None:
            self._engine.schedule_at(completion, done)
            return

        def _complete() -> None:
            done()
            on_done()

        self._engine.schedule_at(completion, _complete)


class FlashChannel(_QueuedChannel):
    """One flash channel: parallel dies behind a serialising bus.

    Reads have priority: an in-flight *program* on the target die is
    suspended (costing :data:`PROGRAM_SUSPEND_NS`), while reads and
    erases occupy the die exclusively.  Two per-die horizons implement
    this: ``_die_free`` is the full horizon every program/erase waits
    for; ``_die_read_free`` excludes suspendable program time.

    The channel bus is modelled as a fixed per-page transfer latency
    (no cross-command blocking): commands are submitted out of order in
    simulated time (background compaction paces work into the future),
    and a blocking horizon would make earlier-completing reads queue
    behind later reservations.  Bus utilisation stays in single-digit
    percents at this simulator's request rates, so contention is
    negligible; the *die* horizons carry all the real queueing.
    """

    def __init__(
        self,
        index: int,
        dies: int,
        timing: FlashTiming,
        engine: Engine,
        transfer_ns: float = PAGE_TRANSFER_NS,
    ) -> None:
        super().__init__(index, timing, engine, transfer_ns)
        self.dies = max(1, dies)
        self._die_free = [0.0] * self.dies
        self._die_read_free = [0.0] * self.dies

    @property
    def free_at(self) -> float:
        """Earliest time a new command could start on some die."""
        return min(self._die_free)

    @property
    def drained_at(self) -> float:
        """Time at which every queued command will have completed."""
        return max(self._die_free)

    # -- latency estimators ---------------------------------------------------

    def estimate_read_ns(self, now: Optional[float] = None) -> float:
        """Die-aware estimate for a *new* read submitted now: queued reads
        and erases spread over the dies ahead of it, one suspend penalty
        if programs are in flight, then the read's own tR and transfer.
        This is Algorithm 1's queue-occupancy estimate adapted to a
        die-parallel, read-priority channel."""
        t = self._timing
        queued = t.read_ns * self.queued_reads + t.erase_ns * self.queued_erases
        suspend = PROGRAM_SUSPEND_NS if self.queued_programs else 0.0
        return queued / self.dies + suspend + t.read_ns + self._transfer_ns

    # -- command submission ------------------------------------------------------

    def _plan_read(self, now: float) -> tuple:
        """Plan (without mutating) the read :meth:`submit_read` would
        issue at ``now``: ``(die, suspended, array_done)``.

        :meth:`submit_read` and :meth:`preview_read_ns` both consume this
        plan, so the previewed latency is consistent with the charged one
        by construction.
        """
        die = self._earliest_die(self._die_read_free)
        start = max(now, self._die_read_free[die])
        suspended = self._die_free[die] > start
        if suspended:
            start += PROGRAM_SUSPEND_NS
        return die, suspended, start + self._timing.read_ns

    def preview_read_ns(self, now: float) -> float:
        """Exact latency :meth:`submit_read` would charge for a read
        submitted at ``now``, without mutating any channel state.

        Unlike the heuristic :meth:`estimate_read_ns` (whose formula is
        pinned by Algorithm 1 and the golden digests), this is the true
        queueing answer -- schedulers that plan against it can never see
        a stale horizon.
        """
        _, _, array_done = self._plan_read(now)
        return array_done + self._transfer_ns - now

    def submit_read(self, now: float, on_done: Optional[Callable[[], None]] = None) -> float:
        """Page read: die op (tR) then page transfer over the bus.

        The read targets the die that is earliest-available *for reads*;
        a program in flight there is suspended.
        """
        die, suspended, array_done = self._plan_read(now)
        if suspended:
            # A suspendable program occupies the die: pay the suspend
            # latency, and push the program's completion out by tR.
            self._die_free[die] += self._timing.read_ns + PROGRAM_SUSPEND_NS
        self._die_read_free[die] = array_done
        self._die_free[die] = max(self._die_free[die], array_done)
        completion = array_done + self._transfer_ns
        self.queued_reads += 1
        self._track(completion, self._read_done, on_done)
        return completion

    def submit_program(self, now: float, on_done: Optional[Callable[[], None]] = None) -> float:
        """Page program: page transfer in over the bus, then die op."""
        bus_done = now + self._transfer_ns
        die = self._earliest_die(self._die_free)
        start = max(bus_done, self._die_free[die])
        completion = start + self._timing.program_ns
        self._die_free[die] = completion
        # Reads need not wait for this program (suspendable).
        self.queued_programs += 1
        self._track(completion, self._program_done, on_done)
        return completion

    def submit_erase(self, now: float, on_done: Optional[Callable[[], None]] = None) -> float:
        """Block erase: die-only, no data transfer, not suspendable."""
        die = self._earliest_die(self._die_free)
        start = max(now, self._die_free[die])
        completion = start + self._timing.erase_ns
        self._die_free[die] = completion
        self._die_read_free[die] = max(self._die_read_free[die], completion)
        self.queued_erases += 1
        self._track(completion, self._erase_done, on_done)
        return completion

    def _earliest_die(self, horizon: List[float]) -> int:
        best, best_t = 0, horizon[0]
        for i in range(1, self.dies):
            if horizon[i] < best_t:
                best, best_t = i, horizon[i]
        return best


class FlashArray:
    """The full multi-channel flash array.

    The one constructor of both device models: the derived geometry is
    computed once (:class:`~repro.ssd.geometry.GeometryModel`) and its
    strides hoisted, so no per-op address check or channel lookup
    re-derives a count from the frozen :class:`FlashGeometry`.  The
    deep model overrides only :meth:`_make_channel` and the
    ``_submit_*`` routing hooks.
    """

    def __init__(
        self,
        geometry: FlashGeometry,
        timing: FlashTiming,
        engine: Engine,
        stats: SimStats,
        transfer_ns: float = PAGE_TRANSFER_NS,
    ) -> None:
        self.geometry = geometry
        self.timing = timing
        self._stats = stats
        self.model = model = GeometryModel(geometry, timing)
        self._pages_per_channel = model.pages_per_channel
        self._pages_per_block = model.pages_per_block
        self._blocks_per_channel = model.blocks_per_channel
        self._total_pages = model.total_pages
        self._total_blocks = model.total_blocks
        self.channels = [
            self._make_channel(i, engine, transfer_ns)
            for i in range(model.channels)
        ]
        #: Optional tenant-QoS admission arbiter (see :mod:`repro.qos`).
        #: ``None`` keeps the unarbitrated fast path untouched.
        self.arbiter = None
        #: Optional sim-time timeline tracer (see :mod:`repro.obs.timeline`).
        self.tracer = None

    def _make_channel(self, index: int, engine: Engine, transfer_ns: float):
        return FlashChannel(
            index, self.model.dies_per_channel, self.timing, engine,
            transfer_ns,
        )

    # -- address arithmetic ----------------------------------------------------

    def channel_of(self, ppa: int) -> int:
        return ppa // self._pages_per_channel

    def block_of(self, ppa: int) -> int:
        """Global block index of a physical page."""
        return ppa // self._pages_per_block

    def page_in_block(self, ppa: int) -> int:
        return ppa % self._pages_per_block

    def first_ppa_of_block(self, block: int) -> int:
        return block * self._pages_per_block

    def channel_of_block(self, block: int) -> int:
        return block // self._blocks_per_channel

    # -- timed operations --------------------------------------------------------

    def read_page(
        self,
        ppa: int,
        now: float,
        on_done: Optional[Callable[[], None]] = None,
        tenant: Optional[int] = None,
    ) -> float:
        """Submit a page read; returns its completion time.

        With an installed :attr:`arbiter` and a known ``tenant``, the
        submit instant is gated by the tenant's admission pacing; the
        recorded flash latency still runs from the request's ``now`` so
        queueing delay imposed by QoS shows up in the tenant's tail.
        """
        if not 0 <= ppa < self._total_pages:
            raise ValueError(f"ppa {ppa} out of range")
        stats = self._stats
        index = ppa // self._pages_per_channel
        arbiter = self.arbiter
        if arbiter is not None and tenant is not None:
            issue = arbiter.admit(index, tenant, now)
            done = self._submit_read(index, ppa, issue, on_done)
            arbiter.note_completion(index, tenant, done)
        else:
            issue = now
            done = self._submit_read(index, ppa, now, on_done)
        if stats.enabled:
            stats.flash_page_reads += 1
            stats.flash_read_latency.record(done - now)
        if self.tracer is not None:
            self._trace_op("flash.read", index, now, done, tenant=tenant,
                           pacing_ns=issue - now)
        return done

    def program_page(
        self, ppa: int, now: float, on_done: Optional[Callable[[], None]] = None
    ) -> float:
        """Submit a page program; returns its completion time."""
        if not 0 <= ppa < self._total_pages:
            raise ValueError(f"ppa {ppa} out of range")
        if self._stats.enabled:
            self._stats.flash_page_writes += 1
        index = ppa // self._pages_per_channel
        done = self._submit_program(index, ppa, now, on_done)
        if self.tracer is not None:
            self._trace_op("flash.program", index, now, done)
        return done

    def erase_block(
        self, block: int, now: float, on_done: Optional[Callable[[], None]] = None
    ) -> float:
        """Submit a block erase; returns its completion time."""
        if not 0 <= block < self._total_blocks:
            raise ValueError(f"block {block} out of range")
        if self._stats.enabled:
            self._stats.flash_block_erases += 1
        index = block // self._blocks_per_channel
        done = self._submit_erase(index, block, now, on_done)
        if self.tracer is not None:
            self._trace_op("flash.erase", index, now, done)
        return done

    # -- routing hooks (overridden by :class:`DeepFlashArray`) -------------------

    def _submit_read(self, index: int, ppa: int, now: float, on_done) -> float:
        return self.channels[index].submit_read(now, on_done)

    def _submit_program(self, index: int, ppa: int, now: float, on_done) -> float:
        return self.channels[index].submit_program(now, on_done)

    def _submit_erase(self, index: int, block: int, now: float, on_done) -> float:
        return self.channels[index].submit_erase(now, on_done)

    def estimate_read_ns(self, ppa: int) -> float:
        """Algorithm 1's latency estimate for a new read of ``ppa``."""
        return self.channels[self.channel_of(ppa)].estimate_read_ns()

    def least_loaded_channel(self, now: float) -> int:
        """Channel where a new command would start earliest (used to
        stripe compaction writes, §III-B)."""
        best = min(self.channels, key=lambda c: c.free_at)
        return best.index

    def _trace_op(
        self,
        name: str,
        index: int,
        start_ns: float,
        end_ns: float,
        tenant: Optional[int] = None,
        pacing_ns: float = 0.0,
    ) -> None:
        """Span for one flash op, on its channel lane (and the tenant's)."""
        args: dict = {"channel": index}
        if pacing_ns > 0:
            args["pacing_ns"] = round(pacing_ns, 1)
        if tenant is not None:
            args["tenant"] = tenant
        self.tracer.complete(
            name, "flash", f"channel {index}", int(start_ns), int(end_ns),
            args=args,
        )
        if tenant is not None:
            self.tracer.complete(
                name, "tenant", f"tenant {tenant}", int(start_ns),
                int(end_ns), args=args,
            )


# ---------------------------------------------------------------------------
# Deep device model (config.device_model.kind == "deep")
# ---------------------------------------------------------------------------


class _PlaneUnit:
    """Scheduling state of one independently-executing array unit
    (a plane, or a whole die when plane parallelism is off)."""

    __slots__ = ("free", "read_free", "suspends")

    def __init__(self) -> None:
        #: Horizon every program/erase (and non-priority read) waits for.
        self.free = 0.0
        #: Horizon excluding suspendable program time (read-priority path).
        self.read_free = 0.0
        #: Reads that have suspended the in-flight program so far
        #: (bounded by ``max_read_bypass``; reset on each new program).
        self.suspends = 0


class DeepFlashChannel(_QueuedChannel):
    """One flash channel of the deep model: explicit (die, plane) units.

    Where :class:`FlashChannel` dispatches each command to the earliest
    *interchangeable* die, the deep channel routes it to the unit the
    page physically lives on -- hot blocks queue on their own die while
    the rest of the channel idles, which is the contention the flat model
    cannot express.  Three policies (``docs/DEVICE_MODEL.md``):

    * ``read_priority`` -- a read may suspend the unit's in-flight
      program (cost :data:`PROGRAM_SUSPEND_NS`); off, reads queue FIFO
      behind programs.
    * ``max_read_bypass`` -- consecutive suspensions one program absorbs
      before becoming non-preemptible (0 = unbounded, the flat model's
      semantics); bounds read-priority starvation of programs.
    * ``plane_parallelism`` -- planes of one die execute independently;
      off, a die is a single serial unit.

    An optional ``schedule_log`` records every array-op interval as
    ``(kind, die, plane, start, end)`` so the invariant suite can assert
    non-overlap properties without reaching into the horizon state.
    """

    def __init__(
        self,
        index: int,
        dies: int,
        planes: int,
        timing: FlashTiming,
        engine: Engine,
        transfer_ns: float = PAGE_TRANSFER_NS,
        *,
        read_priority: bool = True,
        max_read_bypass: int = 0,
        plane_parallelism: bool = True,
        schedule_log: Optional[list] = None,
    ) -> None:
        super().__init__(index, timing, engine, transfer_ns)
        self.dies = max(1, dies)
        self.plane_parallelism = plane_parallelism
        self.planes = max(1, planes) if plane_parallelism else 1
        self.units = self.dies * self.planes
        self._read_priority = read_priority
        self._max_bypass = max(0, max_read_bypass)
        self._units = [_PlaneUnit() for _ in range(self.units)]
        self.schedule_log = schedule_log

    def _unit(self, die: int, plane: int) -> _PlaneUnit:
        # Without plane parallelism ``planes`` is 1 and a die is one unit.
        if self.plane_parallelism:
            return self._units[die * self.planes + plane]
        return self._units[die]

    @property
    def free_at(self) -> float:
        """Earliest time a new command could start on some unit."""
        return min(u.free for u in self._units)

    @property
    def drained_at(self) -> float:
        """Time at which every queued command will have completed."""
        return max(u.free for u in self._units)

    # -- latency estimators ---------------------------------------------------

    def estimate_read_ns(self, now: Optional[float] = None) -> float:
        """Unit-aware heuristic mirroring :meth:`FlashChannel.estimate_read_ns`
        with queued work spread over the channel's independent units."""
        t = self._timing
        queued = t.read_ns * self.queued_reads + t.erase_ns * self.queued_erases
        suspend = PROGRAM_SUSPEND_NS if self.queued_programs else 0.0
        return queued / self.units + suspend + t.read_ns + self._transfer_ns

    # -- command submission ------------------------------------------------------

    def _plan_read(self, u: _PlaneUnit, now: float) -> tuple:
        """``(start, suspended)`` for a read on ``u`` at ``now``, without
        mutating -- shared by :meth:`submit_read` and
        :meth:`preview_read_ns` so preview equals charge by construction.
        """
        start = max(now, u.read_free)
        if u.free <= start:
            return start, False
        if self._read_priority and (
            self._max_bypass == 0 or u.suspends < self._max_bypass
        ):
            return start + PROGRAM_SUSPEND_NS, True
        # Bypass budget exhausted (or no read priority): queue behind the
        # unit's full horizon like any other command.
        return u.free, False

    def preview_read_ns(self, die: int, plane: int, now: float) -> float:
        """Exact latency :meth:`submit_read` would charge at ``now``."""
        start, _ = self._plan_read(self._unit(die, plane), now)
        return start + self._timing.read_ns + self._transfer_ns - now

    def submit_read(
        self, die: int, plane: int, now: float,
        on_done: Optional[Callable[[], None]] = None,
    ) -> float:
        """Page read on its physical unit: tR then bus transfer out."""
        if self.plane_parallelism:
            u = self._units[die * self.planes + plane]
        else:
            u = self._units[die]
        start, suspended = self._plan_read(u, now)
        if suspended:
            u.free += self._timing.read_ns + PROGRAM_SUSPEND_NS
            u.suspends += 1
        elif u.free <= start:
            # Unit idle at issue: any old program finished; the next one
            # gets a fresh bypass budget.
            u.suspends = 0
        array_done = start + self._timing.read_ns
        u.read_free = array_done
        u.free = max(u.free, array_done)
        if self.schedule_log is not None:
            self.schedule_log.append(("read", die, plane, start, array_done))
        completion = array_done + self._transfer_ns
        self.queued_reads += 1
        self._track(completion, self._read_done, on_done)
        return completion

    def submit_program(
        self, die: int, plane: int, now: float,
        on_done: Optional[Callable[[], None]] = None,
    ) -> float:
        """Page program: bus transfer in, then tProg on its unit."""
        u = self._unit(die, plane)
        bus_done = now + self._transfer_ns
        start = max(bus_done, u.free)
        completion = start + self._timing.program_ns
        u.free = completion
        u.suspends = 0
        if self.schedule_log is not None:
            self.schedule_log.append(("program", die, plane, start, completion))
        self.queued_programs += 1
        self._track(completion, self._program_done, on_done)
        return completion

    def submit_erase(
        self, die: int, plane: int, now: float,
        on_done: Optional[Callable[[], None]] = None,
    ) -> float:
        """Block erase: unit-exclusive, no transfer, not suspendable."""
        u = self._unit(die, plane)
        start = max(now, u.free)
        completion = start + self._timing.erase_ns
        u.free = completion
        u.read_free = max(u.read_free, completion)
        u.suspends = 0
        if self.schedule_log is not None:
            self.schedule_log.append(("erase", die, plane, start, completion))
        self.queued_erases += 1
        self._track(completion, self._erase_done, on_done)
        return completion


class DeepFlashArray(FlashArray):
    """Multi-channel array routing by explicit physical geometry.

    Public API (``read_page`` / ``program_page`` / ``erase_block`` /
    ``channel_of`` / estimators / ``arbiter``) is identical to
    :class:`FlashArray`; only the routing hooks differ, so every
    consumer -- controllers, compaction, DRAM manager, the QoS
    admission arbiter -- works unmodified.
    """

    def __init__(
        self,
        geometry: FlashGeometry,
        timing: FlashTiming,
        engine: Engine,
        stats: SimStats,
        transfer_ns: float = PAGE_TRANSFER_NS,
        device: Optional[DeviceModelConfig] = None,
        schedule_log: Optional[list] = None,
    ) -> None:
        self.device = device if device is not None else DeviceModelConfig(kind="deep")
        self._schedule_log = schedule_log
        super().__init__(geometry, timing, engine, stats, transfer_ns)
        model = self.model
        self._pages_per_die = model.pages_per_die
        self._pages_per_plane = model.pages_per_plane
        self._blocks_per_die = model.blocks_per_die
        self._blocks_per_plane = model.blocks_per_plane

    def _make_channel(self, index: int, engine: Engine, transfer_ns: float):
        device = self.device
        return DeepFlashChannel(
            index,
            self.model.dies_per_channel,
            self.model.planes_per_die,
            self.timing,
            engine,
            transfer_ns,
            read_priority=device.read_priority,
            max_read_bypass=device.max_read_bypass,
            plane_parallelism=device.plane_parallelism,
            schedule_log=self._schedule_log,
        )

    def preview_read_ns(self, ppa: int, now: float) -> float:
        """Exact latency a read of ``ppa`` submitted at ``now`` would be
        charged (cf. the heuristic :meth:`estimate_read_ns`)."""
        channel, die, plane, _, _ = self.model.decompose(ppa)
        return self.channels[channel].preview_read_ns(die, plane, now)

    def _sample_depth(self, index: int) -> None:
        stats = self._stats
        if stats.enabled and stats.device is not None:
            stats.device.note_queue_depth(index, self.channels[index].queue_depth)

    # The hooks get a range-checked address and its channel from the
    # public op, so the (die, plane) split is two divmods on the hoisted
    # strides rather than a full GeometryModel.decompose.

    def _submit_read(self, index: int, ppa: int, now: float, on_done) -> float:
        die, in_die = divmod(ppa % self._pages_per_channel, self._pages_per_die)
        channel = self.channels[index]
        done = channel.submit_read(
            die, in_die // self._pages_per_plane, now, on_done
        )
        # _sample_depth inlined: reads are most of the device's commands.
        stats = self._stats
        if stats.enabled and stats.device is not None:
            stats.device.note_queue_depth(
                index,
                channel.queued_reads + channel.queued_programs
                + channel.queued_erases,
            )
        return done

    def _submit_program(self, index: int, ppa: int, now: float, on_done) -> float:
        die, in_die = divmod(ppa % self._pages_per_channel, self._pages_per_die)
        done = self.channels[index].submit_program(
            die, in_die // self._pages_per_plane, now, on_done
        )
        self._sample_depth(index)
        return done

    def _submit_erase(self, index: int, block: int, now: float, on_done) -> float:
        die, in_die = divmod(block % self._blocks_per_channel, self._blocks_per_die)
        done = self.channels[index].submit_erase(
            die, in_die // self._blocks_per_plane, now, on_done
        )
        self._sample_depth(index)
        return done
