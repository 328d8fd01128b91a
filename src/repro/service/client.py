"""Stdlib client for the ``repro serve`` HTTP API.

:class:`ServiceClient` wraps ``urllib`` so scripts, tests, and the
``repro job`` CLI verbs never hand-roll requests.  Every method maps
1:1 onto an endpoint documented in :mod:`repro.service.api`; streaming
reads the NDJSON event feed incrementally, so progress arrives as the
coordinator produces it.
"""

from __future__ import annotations

import json
import socket
import time
import urllib.error
import urllib.request
from typing import Dict, Iterator, List, Optional

from repro.obs.spans import current_context
from repro.service.store import TERMINAL_STATES


class ServiceError(RuntimeError):
    """An API request failed; ``status`` carries the HTTP code."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class ServiceClient:
    """Talks to one ``repro serve`` coordinator at ``base_url``."""

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        if "://" not in self.base_url:
            self.base_url = "http://" + self.base_url
        self.timeout = timeout

    # -- plumbing --------------------------------------------------------

    def _request(self, method: str, path: str,
                 body: Optional[Dict[str, object]] = None,
                 timeout: Optional[float] = None,
                 headers: Optional[Dict[str, str]] = None):
        data = json.dumps(body).encode() if body is not None else None
        send_headers = dict(headers or {})
        if data:
            send_headers["Content-Type"] = "application/json"
        req = urllib.request.Request(
            self.base_url + path, data=data, method=method,
            headers=send_headers,
        )
        try:
            return urllib.request.urlopen(
                req, timeout=self.timeout if timeout is None else timeout)
        except urllib.error.HTTPError as exc:
            try:
                message = json.loads(exc.read()).get("error", str(exc))
            except ValueError:
                message = str(exc)
            raise ServiceError(exc.code, message) from None

    def _json(self, method: str, path: str,
              body: Optional[Dict[str, object]] = None,
              headers: Optional[Dict[str, str]] = None):
        with self._request(method, path, body, headers=headers) as resp:
            return json.loads(resp.read())

    # -- API surface -----------------------------------------------------

    def health(self) -> bool:
        try:
            return bool(self._json("GET", "/health").get("ok"))
        except (ServiceError, urllib.error.URLError):
            return False

    def wait_healthy(self, timeout: float = 10.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.health():
                return
            time.sleep(0.1)
        raise ServiceError(503, f"{self.base_url} not healthy "
                                f"after {timeout:.0f}s")

    def status(self) -> Dict[str, object]:
        return self._json("GET", "/api/status")

    def submit(self, kind: str, spec: Dict[str, object],
               submitter: str = "anonymous",
               priority: int = 0) -> Dict[str, object]:
        # An active client-side span rides along so the coordinator's
        # job (and its workers' cells) correlate with this submission.
        context = current_context()
        headers = ({"X-Repro-Trace": context.to_header()}
                   if context is not None else None)
        return self._json("POST", "/api/jobs", {
            "kind": kind, "spec": spec,
            "submitter": submitter, "priority": priority,
        }, headers=headers)

    def jobs(self, state: Optional[str] = None,
             submitter: Optional[str] = None) -> List[Dict[str, object]]:
        path = "/api/jobs"
        params = [f"{k}={v}" for k, v in
                  (("state", state), ("submitter", submitter)) if v]
        if params:
            path += "?" + "&".join(params)
        return self._json("GET", path)["jobs"]

    def job(self, job_id: int) -> Dict[str, object]:
        return self._json("GET", f"/api/jobs/{job_id}")

    def events(self, job_id: int, after: int = 0) -> List[Dict[str, object]]:
        return self._json(
            "GET", f"/api/jobs/{job_id}/events?after={after}")["events"]

    def result(self, job_id: int) -> Dict[str, object]:
        return self._json("GET", f"/api/jobs/{job_id}/result")

    def cancel(self, job_id: int) -> Dict[str, object]:
        return self._json("POST", f"/api/jobs/{job_id}/cancel")

    def stream(self, job_id: int, after: int = 0,
               timeout: Optional[float] = None) -> Iterator[Dict[str, object]]:
        """Yield the job's events live until it reaches a terminal state.

        The last yielded record is the server's synthetic
        ``{"event": "state"}`` line.  ``timeout`` is the per-read
        socket timeout (a sweep cell can legitimately take minutes;
        default: no limit).
        """
        path = f"/api/jobs/{job_id}/events?after={after}&stream=1"
        resp = self._request("GET", path, timeout=timeout or 3600.0)
        try:
            for raw in resp:
                line = raw.strip()
                if line:
                    yield json.loads(line)
        finally:
            resp.close()

    def wait(self, job_id: int, timeout: float = 3600.0) -> Dict[str, object]:
        """Block until the job is terminal; returns the final job row.

        Follows :meth:`stream` to its terminal line, so the wait ends
        the moment the job does.  Raises ``ServiceError`` 408 once
        ``timeout`` seconds pass with the job still live.
        """
        deadline = time.monotonic() + timeout
        try:
            for _event in self.stream(job_id, timeout=timeout):
                if time.monotonic() >= deadline:
                    break
        except socket.timeout:
            pass  # no event for the whole timeout
        job = self.job(job_id)
        if job["state"] not in TERMINAL_STATES:
            raise ServiceError(
                408, f"job {job_id} still {job['state']} "
                     f"after {timeout:.0f}s")
        return job
