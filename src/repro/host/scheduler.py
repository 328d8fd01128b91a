"""OS thread scheduler model.

Implements the three policies of §III-A for picking the next runnable
thread after a Long Delay Exception yields the core:

* **RR** -- round robin over the run queue;
* **RANDOM** -- uniformly random runnable thread;
* **FAIRNESS** -- CFS-like: the thread with the least received execution
  time (vruntime) runs next, as in Linux's Completely Fair Scheduler.

A yielded thread is immediately re-enqueued ("the yield thread is
re-enqueued back to the run queue in OS, allowing it to be scheduled
again later") -- it is not blocked on I/O, so it may even be picked again
right away if nothing else is runnable, which the paper notes CFS
sometimes does.
"""

from __future__ import annotations

import random
from operator import attrgetter
from typing import List, Optional

from repro.config import T_POLICIES as POLICIES
from repro.host.threads import ThreadContext

#: CFS pick key ``(runtime_ns, tid)``, read in C: no Python call per
#: queued thread.
_FAIR_KEY = attrgetter("runtime_ns", "tid")


class Scheduler:
    """Run queue shared by all cores."""

    def __init__(self, policy: str = "FAIRNESS", seed: int = 0) -> None:
        policy = policy.upper()
        if policy == "CFS":
            policy = "FAIRNESS"
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; pick from {POLICIES}")
        self.policy = policy
        self._rng = random.Random(seed)
        self._queue: List[ThreadContext] = []
        self._tenant_map = None  # set via set_tenant_qos

    def set_tenant_qos(self, tenant_map) -> None:
        """Install tenant-aware FAIRNESS picking (see :mod:`repro.qos`).

        Under "wfq" the pick key becomes weight-scaled virtual runtime
        (``runtime / weight``), so with one tenant of weight 1.0 the
        ordering is bit-identical to plain CFS.  Under "priority" the
        highest tenant priority wins, fair runtime within a level.
        """
        self._tenant_map = tenant_map

    # -- queue operations ---------------------------------------------------

    def enqueue(self, thread: ThreadContext) -> None:
        """Make ``thread`` runnable."""
        if thread.done:
            return
        self._queue.append(thread)

    def runnable(self) -> int:
        return len(self._queue)

    def pick_next(self, prefer_not: Optional[int] = None) -> Optional[ThreadContext]:
        """Dequeue the next thread per policy.

        ``prefer_not`` is the tid that just yielded: it is chosen only if
        no other thread is runnable (all policies try to give another
        thread the core, though CFS may still re-pick the yielder when its
        vruntime is lowest -- the paper's observed CFS quirk -- which we
        retain by *not* applying the preference under FAIRNESS).
        """
        if not self._queue:
            return None
        if self.policy == "RR":
            return self._pick_rr(prefer_not)
        if self.policy == "RANDOM":
            return self._pick_random(prefer_not)
        return self._pick_fair()

    def _pick_rr(self, prefer_not: Optional[int]) -> ThreadContext:
        if prefer_not is not None and len(self._queue) > 1:
            for i, t in enumerate(self._queue):
                if t.tid != prefer_not:
                    return self._queue.pop(i)
        return self._queue.pop(0)

    def _pick_random(self, prefer_not: Optional[int]) -> ThreadContext:
        candidates = self._queue
        if prefer_not is not None and len(candidates) > 1:
            indices = [i for i, t in enumerate(candidates) if t.tid != prefer_not]
        else:
            indices = list(range(len(candidates)))
        idx = self._rng.choice(indices)
        return self._queue.pop(idx)

    def _pick_fair(self) -> ThreadContext:
        if self._tenant_map is not None:
            from repro.qos import weighted_pick_key

            tmap = self._tenant_map
            best = min(self._queue, key=lambda t: weighted_pick_key(
                t.runtime_ns, t.tid, tmap))
        else:
            best = min(self._queue, key=_FAIR_KEY)
        # Keys end in the unique tid, so ``best`` is the first minimum in
        # queue order; ``remove`` finds it by identity.
        self._queue.remove(best)
        return best
