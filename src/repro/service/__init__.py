"""Sweep-as-a-service: the always-on coordinator (``repro serve``).

Submodules:

* :mod:`repro.service.store` -- sqlite persistence: the
  :class:`~repro.service.store.JobStore` job queue / event log.
* :mod:`repro.service.coordinator` -- :class:`SweepService`, the
  scheduler that claims jobs and runs them through
  :mod:`repro.experiments.jobspec`, as the CLI verbs do.
* :mod:`repro.service.api` -- the HTTP/JSON front end.
* :mod:`repro.service.client` -- a stdlib-only client used by the
  ``repro job`` CLI verbs and by tests.

The coordinator and API are imported lazily by the CLI (``repro
serve`` / ``repro job``) so that importing :mod:`repro.service` stays
cheap for code that only wants the job store.
"""

from repro.service.store import JobStore

__all__ = [
    "JobStore",
]
