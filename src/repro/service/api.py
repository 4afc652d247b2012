"""REST front end for a :class:`~repro.service.fleet.Fleet` (stdlib only).

A thin ``http.server.ThreadingHTTPServer`` — no web framework.  JSON in,
JSON out; traces stream as JSON Lines.  Routes:

====== ============================ ==========================================
POST   ``/v1/jobs[?id=<id>]``       body = scenario JSON -> ``{"id": ...}``
POST   ``/v1/jobs/<id>/admit``      body = ``{"cycle", "spec"}`` mid-run arrival
GET    ``/v1/jobs``                 all job metadata records
GET    ``/v1/jobs/<id>``            one job's metadata (status, shard, ...)
GET    ``/v1/jobs/<id>/scenario``   the submitted document, verbatim
GET    ``/v1/jobs/<id>/result``     terminal result (409 while running)
GET    ``/v1/jobs/<id>/trace``      streamed JSONL trace (404 if untraced)
GET    ``/v1/fleet``                workers, per-shard occupancy, job table
POST   ``/v1/recover``              requeue dead workers' jobs, respawn
GET    ``/v1/healthz``              liveness probe
====== ============================ ==========================================

Error contract: invalid scenario documents are a 400 with the
:class:`ValueError` text; unknown job ids are 404; a result requested
before the job is terminal is 409 (retry later) so clients can
distinguish "not yet" from "never existed".  A ``Content-Length`` that
is not a digit string is a 400 and an oversize body a 413; both close
the connection.

Submission is idempotent when the client supplies ``?id=<job_id>``: a
retried POST whose first attempt already reached the fleet replays to
the same job (200 with the existing id) instead of enqueueing a
duplicate — what lets :meth:`~repro.service.client.ServiceClient.submit`
retry a non-idempotent verb safely.
"""

from __future__ import annotations

import json
import re
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..runtime import JobSpec
from .fleet import Fleet

__all__ = ["ApiServer", "serve"]


class _Server(ThreadingHTTPServer):
    # the default backlog of 5 resets connections under concurrent load
    # generation (100+ simultaneous submits); match the load we benchmark
    request_queue_size = 256
    daemon_threads = True

#: refuse request bodies above this size (a scenario document is small;
#: anything bigger is a client bug, not a workload)
MAX_BODY = 4 * 1024 * 1024

#: client-supplied job ids become directory names under the store root,
#: so they must be plain path-safe tokens (no separators, no dotfiles)
_JOB_ID_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]{0,127}")


class _Handler(BaseHTTPRequestHandler):
    # set by ApiServer
    fleet: Fleet

    protocol_version = "HTTP/1.1"

    # -- plumbing -------------------------------------------------------
    def log_message(self, fmt: str, *args) -> None:  # noqa: A003
        if getattr(self.server, "verbose", False):
            super().log_message(fmt, *args)

    def _json(self, code: int, payload) -> None:
        body = (json.dumps(payload, separators=(",", ":")) + "\n").encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, code: int, message: str) -> None:
        self._json(code, {"error": message})

    def _read_body(self) -> bytes | None:
        header = self.headers.get("Content-Length", "0").strip()
        # digits only: int() would also take "-1", whose rfile.read(-1)
        # blocks until the client hangs up
        if not (header.isascii() and header.isdigit()):
            error = (400, f"bad Content-Length: {header!r}")
        elif int(header) > MAX_BODY:
            error = (413, f"body too large ({header} > {MAX_BODY} bytes)")
        else:
            return self.rfile.read(int(header))
        # the unread body would be parsed as the next request
        self.close_connection = True
        self._error(*error)
        return None

    # -- routes ---------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802
        path, _, query = self.path.partition("?")
        parts = [p for p in path.split("/") if p]
        if parts == ["v1", "jobs"]:
            body = self._read_body()
            if body is None:
                return
            try:
                doc = json.loads(body)
            except json.JSONDecodeError as exc:
                return self._error(400, f"body is not JSON: {exc}")
            requested = urllib.parse.parse_qs(query).get("id", [None])[0]
            if requested is not None and not _JOB_ID_RE.fullmatch(requested):
                return self._error(400, f"invalid job id: {requested!r}")
            if requested is not None and self.fleet.store.meta_path(requested).exists():
                # idempotent replay: the first attempt of a retried
                # submission already landed, so acknowledge it (200, not
                # 201 — nothing new was created)
                return self._json(200, {"id": requested})
            try:
                job_id = self.fleet.submit_doc(doc, job_id=requested)
            except (ValueError, TypeError) as exc:
                return self._error(400, str(exc))
            return self._json(201, {"id": job_id})
        if len(parts) == 4 and parts[:2] == ["v1", "jobs"] and parts[3] == "admit":
            return self._post_admit(parts[2])
        if parts == ["v1", "recover"]:
            return self._json(200, {"requeued": self.fleet.recover()})
        self._error(404, f"no such route: POST {self.path}")

    def _post_admit(self, job_id: str) -> None:
        """``POST /v1/jobs/<id>/admit`` — queue one mid-run arrival.

        Body: ``{"cycle": C, "spec": <JobSpec document>}``.  The worker
        driving the scenario polls the store and admits the spec before
        the first superstep at or after cycle ``C`` (immediately, when
        the runtime is already past it or idle).
        """
        store = self.fleet.store
        if not store.meta_path(job_id).exists():
            return self._error(404, f"no such job: {job_id}")
        rec = store.read_meta(job_id)
        if rec.status in ("done", "failed"):
            return self._error(
                409, f"job {job_id} is {rec.status}; cannot admit into it"
            )
        body = self._read_body()
        if body is None:
            return
        try:
            doc = json.loads(body)
        except json.JSONDecodeError as exc:
            return self._error(400, f"body is not JSON: {exc}")
        if not isinstance(doc, dict) or "cycle" not in doc or "spec" not in doc:
            return self._error(400, 'admission body must be {"cycle": ..., "spec": ...}')
        try:
            cycle = int(doc["cycle"])
            if cycle < 0:
                raise ValueError(f"cycle must be >= 0, got {cycle}")
            JobSpec.from_obj(doc["spec"])  # validate before persisting
        except (ValueError, TypeError) as exc:
            return self._error(400, str(exc))
        name = store.write_admission(job_id, cycle, doc["spec"])
        return self._json(201, {"admission": name})

    def do_GET(self) -> None:  # noqa: N802
        parts = [p for p in self.path.split("/") if p]
        if parts == ["v1", "healthz"]:
            return self._json(200, {"ok": True})
        if parts == ["v1", "fleet"]:
            return self._json(200, self.fleet.status())
        if parts == ["v1", "jobs"]:
            return self._json(200, {"jobs": self.fleet.status()["jobs"]})
        if len(parts) in (3, 4) and parts[:2] == ["v1", "jobs"]:
            job_id = parts[2]
            store = self.fleet.store
            if not store.meta_path(job_id).exists():
                return self._error(404, f"no such job: {job_id}")
            if len(parts) == 3:
                return self._json(200, store.read_meta(job_id).as_dict())
            sub = parts[3]
            if sub == "scenario":
                return self._json(200, store.read_scenario_doc(job_id))
            if sub == "result":
                rec = store.read_meta(job_id)
                result = store.read_result(job_id)
                if result is None or rec.status not in ("done", "failed"):
                    return self._error(
                        409, f"job {job_id} is {rec.status}; result not ready"
                    )
                return self._json(200, result)
            if sub == "trace":
                path = store.trace_path(job_id)
                if not path.exists():
                    return self._error(
                        404, f"job {job_id} has no trace (scenario trace=false?)"
                    )
                data = path.read_bytes()
                self.send_response(200)
                self.send_header("Content-Type", "application/jsonl")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)
                return
        self._error(404, f"no such route: GET {self.path}")


class ApiServer:
    """Owns the HTTP server thread pool bound to one fleet."""

    def __init__(self, fleet: Fleet, host: str = "127.0.0.1", port: int = 0,
                 *, verbose: bool = False):
        self.fleet = fleet
        handler = type("BoundHandler", (_Handler,), {"fleet": fleet})
        self.httpd = _Server((host, port), handler)
        self.httpd.verbose = verbose  # type: ignore[attr-defined]

    @property
    def address(self) -> str:
        host, port = self.httpd.server_address[:2]
        return f"http://{host}:{port}"

    def serve_forever(self) -> None:
        self.httpd.serve_forever()

    def serve_background(self):
        """Start serving on a daemon thread; returns the thread."""
        import threading

        thread = threading.Thread(
            target=self.httpd.serve_forever, name="repro-api", daemon=True
        )
        thread.start()
        return thread

    def shutdown(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()


def serve(root: str, *, n_shards: int = 2, host: str = "127.0.0.1",
          port: int = 8642, verbose: bool = True) -> None:
    """Run a fleet + API in the foreground (the ``service serve`` CLI)."""
    fleet = Fleet(root, n_shards)
    fleet.start()
    server = ApiServer(fleet, host, port, verbose=verbose)
    print(f"serving {n_shards} shards from {root} at {server.address}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        fleet.stop()
