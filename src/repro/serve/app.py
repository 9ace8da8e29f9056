"""The benchmark-as-a-service HTTP server (stdlib only).

One :class:`ReproServer` exposes the whole stack over HTTP — browse
taxonomies and question pools, list/show/diff ledgered runs, submit
new evaluation runs, and watch any run live over Server-Sent Events —
with zero dependencies beyond ``http.server``.  Requests are handled
by a :class:`~http.server.ThreadingHTTPServer` (one thread per
connection, so N SSE streams and REST calls coexist); run execution
happens on the :class:`repro.serve.jobs.JobManager` worker pool, and
live streaming fans one :class:`repro.obs.LedgerFollower` per run out
to every subscriber through the
:class:`repro.serve.hub.FollowerHub`.

Endpoints (all JSON; errors are ``{"error": {status, code,
message}}``):

====================================  ======================================
``GET  /``                            endpoint index
``GET  /healthz``                     liveness + hub/job stats
``GET  /taxonomies``                  the ten taxonomies (Table 1 shape)
``GET  /taxonomies/<key>``            one spec + built statistics
``GET  /pools/<key>?sample=&seed=``   question-pool sizes (Table 4 shape)
``GET  /models``                      the eighteen model names
``GET  /runs``                        ``runs list --json``
``POST /runs``                        submit a RunRequest -> 202 + job
``GET  /runs/<id>``                   ``runs show <id> --json``
``GET  /runs/<id>/result``            ``repro run --json`` final summary
``GET  /runs/<id>/progress``          one live follower snapshot
``GET  /runs/<id>/alerts``            one-shot alert rule assessment
``GET  /runs/<id>/events``            SSE snapshots + alert frames
``GET  /runs/<id>/diff/<other>``      ``runs diff --json``
``GET  /runs/<id>/trail/<index>``     ``obs why --json`` provenance
``GET  /runs/<id>/trails``            ``obs trails --json`` analytics
``POST /runs/<id>/resume``            finish an interrupted run -> 202
``GET  /jobs`` / ``GET /jobs/<id>``   background job tracking
====================================  ======================================

Tenancy: the ``X-Repro-Tenant`` header namespaces every run
operation into its own registry under ``<root>/tenants/<name>``
(default tenant = the root itself, so the server is a drop-in front
for an existing ``REPRO_RUNS_DIR``).  Tenant names are validated
against a conservative pattern so a hostile header can never escape
the root.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, unquote, urlsplit

from repro.errors import (LedgerCorruptError, ManifestCorruptError,
                          ReproError, RunError, UnknownRunError)
from repro.obs.jsonl import dumps_line
from repro.runs.registry import PLAIN_NAME_RE
from repro.serve.hub import FollowerHub
from repro.serve.jobs import JobManager
from repro.serve.views import (dumps_view, run_diff_body, run_result_body,
                               run_show_body, run_trail_payload,
                               run_trails_body, runs_list_payload)

_log = logging.getLogger("repro.serve")

#: Header selecting the tenant namespace for run operations.
TENANT_HEADER = "X-Repro-Tenant"

#: The tenant name that maps to the registry root itself.
DEFAULT_TENANT = "default"

#: Default request-body ceiling (a RunRequest is < 1 KiB).
DEFAULT_MAX_BODY_BYTES = 64 * 1024

#: Seconds a connection may sit in one socket read or write before
#: the server drops it, so an idle or stalled client cannot hold a
#: handler thread forever.  SSE streams write a ping at least every
#: 10 s, well inside it.
CONNECTION_TIMEOUT_S = 30.0


class _HTTPError(Exception):
    """Internal: raised by handlers to produce a structured error."""

    def __init__(self, status: int, code: str, message: str):
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message


def _bad_request(message: str) -> _HTTPError:
    return _HTTPError(400, "bad-request", message)


def _not_found(message: str) -> _HTTPError:
    return _HTTPError(404, "not-found", message)


class _ReproHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    #: Set by :class:`ReproServer` right after construction.
    app: "ReproServer"


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"
    timeout = CONNECTION_TIMEOUT_S
    # A response goes out as two writes (headers, then body); with
    # Nagle on, the body waits for the client's delayed ACK of the
    # headers (~40 ms) on every keep-alive request.
    disable_nagle_algorithm = True

    # -- plumbing ------------------------------------------------------
    def log_message(self, format: str, *args) -> None:
        if _log.isEnabledFor(logging.DEBUG):
            _log.debug("%s %s", self.address_string(), format % args)

    def _send_json(self, status: int, payload: object,
                   allow: str | None = None) -> None:
        """Send ``payload``, or the body a ``*_body`` view already
        encoded (bytes, which no JSON payload is)."""
        body = (payload if type(payload) is bytes
                else dumps_view(payload).encode("utf-8"))
        self.send_response(status)
        if allow is not None:
            self.send_header("Allow", allow)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, code: str, message: str,
                         allow: str | None = None) -> None:
        self._send_json(status, {"error": {
            "status": status, "code": code, "message": message}},
            allow=allow)

    def _read_body(self) -> dict:
        """The request's JSON object body, size- and shape-checked."""
        app = self.server.app
        raw_length = self.headers.get("Content-Length")
        if raw_length is None:
            raise _bad_request("a JSON body with Content-Length is "
                               "required")
        try:
            length = int(raw_length)
        except ValueError:
            raise _bad_request(f"bad Content-Length: {raw_length!r}")
        if length > app.max_body_bytes:
            # Refuse without reading; the connection is closed so the
            # unread body can never be misparsed as a next request.
            self.close_connection = True
            raise _HTTPError(413, "payload-too-large",
                             f"body of {length} bytes exceeds the "
                             f"{app.max_body_bytes}-byte limit")
        try:
            payload = json.loads(self.rfile.read(max(0, length)))
        except ValueError as exc:
            raise _bad_request(f"invalid JSON body: {exc}")
        if not isinstance(payload, dict):
            raise _bad_request("request body must be a JSON object")
        return payload

    def _tenant(self) -> str:
        name = (self.headers.get(TENANT_HEADER) or "").strip()
        if not name:
            return DEFAULT_TENANT
        if not PLAIN_NAME_RE.fullmatch(name):
            raise _bad_request(f"bad tenant name: {name!r}")
        return name

    # -- dispatch ------------------------------------------------------
    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    def do_PUT(self) -> None:
        self._dispatch("PUT")

    def do_DELETE(self) -> None:
        self._dispatch("DELETE")

    def _dispatch(self, method: str) -> None:
        try:
            parsed = urlsplit(self.path)
            segments = tuple(unquote(part)
                             for part in parsed.path.split("/")
                             if part)
            query = parse_qs(parsed.query)
            self._route(method, segments, query)
        except _HTTPError as exc:
            self._send_error_json(exc.status, exc.code, exc.message)
        except UnknownRunError as exc:
            self._send_error_json(404, "unknown-run", str(exc))
        except LedgerCorruptError as exc:
            # The run's own files are damaged: not the client's fault.
            self._send_error_json(500, "corrupt-ledger", str(exc))
        except ManifestCorruptError as exc:
            self._send_error_json(500, "corrupt-manifest", str(exc))
        except ReproError as exc:
            self._send_error_json(400, "bad-request", str(exc))
        except (BrokenPipeError, ConnectionResetError, TimeoutError):
            self.close_connection = True
        except Exception as exc:  # pragma: no cover - last resort
            _log.exception("unhandled error serving %s %s",
                           method, self.path)
            try:
                self._send_error_json(500, "internal",
                                      f"{type(exc).__name__}: {exc}")
            except OSError:
                self.close_connection = True

    def _route(self, method: str, segments: tuple[str, ...],
               query: dict) -> None:
        app = self.server.app
        if not segments:
            return self._require(method, "GET",
                                 lambda: app.index_payload())
        head = segments[0]
        if head == "healthz" and len(segments) == 1:
            return self._require(method, "GET",
                                 lambda: app.health_payload())
        if head == "taxonomies" and len(segments) <= 2:
            key = segments[1] if len(segments) == 2 else None
            return self._require(
                method, "GET", lambda: app.taxonomies_payload(key))
        if head == "models" and len(segments) == 1:
            return self._require(method, "GET",
                                 lambda: app.models_payload())
        if head == "pools" and len(segments) == 2:
            return self._require(
                method, "GET",
                lambda: app.pool_payload(segments[1], query))
        if head == "jobs" and len(segments) <= 2:
            job_id = segments[1] if len(segments) == 2 else None
            return self._require(
                method, "GET",
                lambda: app.jobs_payload(self._tenant(), job_id))
        if head == "runs":
            return self._route_runs(method, segments[1:], query)
        raise _not_found(f"no such endpoint: /{'/'.join(segments)}")

    def _require(self, method: str, wanted: str, build) -> None:
        if method != wanted:
            return self._send_error_json(405, "method-not-allowed",
                                         f"use {wanted}", allow=wanted)
        status, payload = build()
        self._send_json(status, payload)

    def _route_runs(self, method: str, rest: tuple[str, ...],
                    query: dict) -> None:
        app = self.server.app
        tenant = self._tenant()
        registry = app.registry_for(tenant)
        if not rest:
            if method == "POST":
                status, payload = app.submit_run(
                    tenant, registry, self._read_body())
                return self._send_json(status, payload)
            return self._require(
                method, "GET",
                lambda: (200, runs_list_payload(registry)))
        run_id = rest[0]
        if len(rest) == 1:
            return self._require(
                method, "GET",
                lambda: (200, run_show_body(registry, run_id)))
        if len(rest) == 2 and rest[1] == "result":
            return self._require(
                method, "GET",
                lambda: (200, run_result_body(registry, run_id)))
        if len(rest) == 2 and rest[1] == "progress":
            return self._require(
                method, "GET",
                lambda: (200, app.progress_payload(registry, run_id)))
        if len(rest) == 2 and rest[1] == "alerts":
            return self._require(
                method, "GET",
                lambda: (200, app.alerts_payload(registry, run_id)))
        if len(rest) == 2 and rest[1] == "resume":
            if method != "POST":
                return self._require(method, "POST", None)
            status, payload = app.submit_resume(tenant, registry,
                                                run_id)
            return self._send_json(status, payload)
        if len(rest) == 3 and rest[1] == "diff":
            return self._require(
                method, "GET",
                lambda: (200, run_diff_body(registry, run_id, rest[2])))
        if len(rest) == 3 and rest[1] == "trail":
            try:
                index = int(rest[2])
            except ValueError:
                raise _bad_request(f"question index must be an "
                                   f"integer, got {rest[2]!r}")
            return self._require(
                method, "GET",
                lambda: (200, run_trail_payload(registry, run_id,
                                                index)))
        if len(rest) == 2 and rest[1] == "trails":
            return self._require(
                method, "GET",
                lambda: (200, run_trails_body(registry, run_id)))
        if len(rest) == 2 and rest[1] == "events":
            if method != "GET":
                return self._require(method, "GET", None)
            return self._stream_events(app, tenant, registry, run_id,
                                       query)
        raise _not_found(f"no such endpoint: /runs/{'/'.join(rest)}")

    # -- SSE -----------------------------------------------------------
    def _stream_events(self, app: "ReproServer", tenant: str,
                       registry, run_id: str, query: dict) -> None:
        try:
            limit = int(query.get("limit", ["0"])[0] or 0)
        except ValueError:
            raise _bad_request("limit must be an integer")
        # Subscribing validates the run id (404 before any bytes).
        subscription = app.hub.subscribe(tenant, run_id, registry)
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-store")
        self.send_header("Connection", "close")
        self.end_headers()
        sent = 0
        try:
            for kind, payload in subscription.events():
                if kind == "ping":
                    self.wfile.write(b": ping\n\n")
                    self.wfile.flush()
                    continue
                frame = f"event: {kind}\ndata: {dumps_line(payload)}\n"
                self.wfile.write(frame.encode("utf-8"))
                self.wfile.flush()
                if kind == "snapshot":
                    sent += 1
                    if limit and sent >= limit:
                        break
                if kind == "done":
                    break
        except (BrokenPipeError, ConnectionResetError, TimeoutError):
            pass
        finally:
            subscription.close()
            self.close_connection = True


class ReproServer:
    """The serving facade: owns the registry root, hub and jobs.

    Construct, then either :meth:`start` (background thread; tests and
    embedding) or :meth:`serve_forever` (blocking; the CLI).  Always
    :meth:`close` to release the socket, the follower broadcasts and
    the job pool.
    """

    def __init__(self, root: str | Path | None = None,
                 host: str = "127.0.0.1", port: int = 0,
                 poll_interval_s: float = 0.25,
                 idle_grace_s: float = 5.0,
                 job_workers: int = 2,
                 max_body_bytes: int = DEFAULT_MAX_BODY_BYTES):
        from repro.runs.registry import StateCache, default_runs_root
        self.root = (Path(root) if root is not None
                     else default_runs_root())
        #: Replayed ledgers shared by every tenant's registry, so a
        #: run is replayed once per ledger version, not per request.
        self.state_cache = StateCache()
        self.hub = FollowerHub(interval_s=poll_interval_s,
                               idle_grace_s=idle_grace_s)
        self.jobs = JobManager(max_workers=job_workers)
        self.max_body_bytes = max_body_bytes
        self.started_at = time.time()
        self._httpd = _ReproHTTPServer((host, port), _Handler)
        self._httpd.app = self
        self._thread: threading.Thread | None = None
        self._closed = False

    # -- lifecycle -----------------------------------------------------
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ReproServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-serve", daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:  # pragma: no cover - CLI loop
        self._httpd.serve_forever(poll_interval=0.25)

    def close(self, wait_jobs: bool = False) -> None:
        if self._closed:
            return
        self._closed = True
        self._httpd.shutdown()
        self.hub.close()
        self.jobs.close(wait=wait_jobs)
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    def __enter__(self) -> "ReproServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- tenancy -------------------------------------------------------
    def registry_for(self, tenant: str):
        from repro.runs.registry import TENANTS_DIRNAME, RunRegistry
        root = (self.root if tenant == DEFAULT_TENANT
                else self.root / TENANTS_DIRNAME / tenant)
        return RunRegistry(root, state_cache=self.state_cache)

    # -- payload builders ---------------------------------------------
    def index_payload(self) -> tuple[int, dict]:
        import repro
        return 200, {
            "service": "repro-serve",
            "version": repro.__version__,
            "endpoints": {
                "GET /healthz": "liveness + hub/job stats",
                "GET /taxonomies": "the ten taxonomies",
                "GET /taxonomies/<key>": "one spec + statistics",
                "GET /pools/<key>?sample=&seed=": "pool sizes",
                "GET /models": "the eighteen model names",
                "GET /runs": "runs list --json",
                "POST /runs": "submit a RunRequest (202 + job)",
                "GET /runs/<id>": "runs show --json",
                "GET /runs/<id>/result": "repro run --json summary",
                "GET /runs/<id>/progress": "one follower snapshot",
                "GET /runs/<id>/alerts": "one-shot alert assessment",
                "GET /runs/<id>/events": "SSE snapshots + alerts",
                "GET /runs/<id>/diff/<other>": "runs diff --json",
                "GET /runs/<id>/trail/<index>": "obs why --json",
                "GET /runs/<id>/trails": "obs trails --json",
                "POST /runs/<id>/resume": "resume a run (202 + job)",
                "GET /jobs": "background jobs",
                "GET /jobs/<id>": "one background job",
            },
            "tenant_header": TENANT_HEADER,
        }

    def health_payload(self) -> tuple[int, dict]:
        jobs = self.jobs.list_jobs()
        return 200, {
            "status": "ok",
            "uptime_s": time.time() - self.started_at,
            "runs_root": str(self.root),
            "jobs": {
                "total": len(jobs),
                "active": self.jobs.active(),
            },
            "hub": self.hub.stats(),
        }

    def taxonomies_payload(self, key: str | None) -> tuple[int, dict | list]:
        from repro.generators import ALL_SPECS, get_spec
        if key is None:
            return 200, [self._spec_row(spec) for spec in ALL_SPECS]
        try:
            spec = get_spec(key)
        except ReproError as exc:
            raise _not_found(str(exc))
        return 200, self._spec_detail(spec)

    @staticmethod
    def _spec_row(spec) -> dict[str, object]:
        return {
            "key": spec.key,
            "name": spec.display_name,
            "domain": spec.domain.value,
            "levels": spec.num_levels,
            "trees": spec.num_trees,
            "entities": spec.num_entities,
        }

    def _spec_detail(self, spec) -> dict[str, object]:
        from repro.generators import build_taxonomy
        from repro.taxonomy.stats import compute_statistics
        stats = compute_statistics(build_taxonomy(spec.key))
        return {
            **self._spec_row(spec),
            "concept_noun": spec.concept_noun,
            "level_widths_spec": list(spec.level_widths),
            "entities_built": stats.num_entities,
            "level_widths_built": list(stats.level_widths),
        }

    def models_payload(self) -> tuple[int, dict]:
        from repro.data.paper_tables import MODEL_ORDER
        return 200, {"models": list(MODEL_ORDER)}

    def pool_payload(self, key: str,
                     query: dict) -> tuple[int, dict]:
        from repro.generators import get_spec
        from repro.questions.pools import build_pools
        try:
            get_spec(key)
        except ReproError as exc:
            raise _not_found(str(exc))
        sample = query.get("sample", [None])[0]
        seed = query.get("seed", [""])[0]
        try:
            sample_size = int(sample) if sample is not None else None
        except ValueError:
            raise _bad_request(f"sample must be an integer, "
                               f"got {sample!r}")
        pools = build_pools(key, sample_size=sample_size, seed=seed)
        return 200, {
            "taxonomy": key,
            "sample_size": sample_size,
            "seed": seed,
            "levels": pools.statistics(),
        }

    def jobs_payload(self, tenant: str,
                     job_id: str | None) -> tuple[int, dict | list]:
        if job_id is None:
            return 200, [job.to_dict()
                         for job in self.jobs.list_jobs(tenant)]
        job = self.jobs.get(job_id)
        if job is None or job.tenant != tenant:
            raise _not_found(f"unknown job: {job_id!r}")
        return 200, job.to_dict()

    # -- run submission ------------------------------------------------
    def submit_run(self, tenant: str, registry,
                   body: dict) -> tuple[int, dict]:
        from repro.runs.request import RunRequest
        defaults = RunRequest().to_dict()
        unknown = sorted(set(body) - set(defaults))
        if unknown:
            raise _bad_request(
                f"unknown request fields: {', '.join(unknown)} "
                f"(expected a subset of "
                f"{', '.join(sorted(defaults))})")
        try:
            request = RunRequest.from_dict({**defaults, **body})
        except (RunError, TypeError, ValueError) as exc:
            raise _bad_request(f"invalid run request: {exc}")
        # Name validation the CLI gets from argparse ``choices``:
        # reject at admission instead of failing the job later.
        from repro.data.paper_tables import MODEL_ORDER, TAXONOMY_ORDER
        unknown = sorted(set(request.models) - set(MODEL_ORDER))
        if unknown:
            raise _bad_request(f"unknown models: {', '.join(unknown)}")
        unknown = sorted(set(request.taxonomy_keys)
                         - set(TAXONOMY_ORDER))
        if unknown:
            raise _bad_request(
                f"unknown taxonomies: {', '.join(unknown)}")
        job = self.jobs.submit_run(request, registry, tenant=tenant)
        _log.info("run-submitted tenant=%s run=%s job=%s",
                  tenant, job.run_id, job.job_id)
        return 202, {"job": job.to_dict(), "run_id": job.run_id}

    def submit_resume(self, tenant: str, registry,
                      run_id: str) -> tuple[int, dict]:
        job = self.jobs.submit_resume(run_id, registry,
                                      tenant=tenant)
        _log.info("resume-submitted tenant=%s run=%s job=%s",
                  tenant, run_id, job.job_id)
        return 202, {"job": job.to_dict(), "run_id": run_id}

    # -- run inspection ------------------------------------------------
    def progress_payload(self, registry, run_id: str) -> dict:
        from repro.obs.live import LedgerFollower
        return LedgerFollower(run_id, registry=registry).poll() \
            .to_dict()

    def alerts_payload(self, registry, run_id: str) -> dict:
        """Every rule assessed against one fresh snapshot.

        One-shot by design: ``for_s`` debounce needs a history of
        observations, which only the SSE broadcast (one evaluator per
        run) has — so this endpoint reports instantaneous breaches,
        and the stream reports debounced firing/resolved transitions.
        """
        from repro.obs.alerts import AlertEvaluator
        from repro.obs.live import LedgerFollower
        progress = LedgerFollower(run_id, registry=registry).poll()
        return {
            "run_id": run_id,
            "status": progress.status,
            "cost_usd": progress.cost_usd,
            "rules": AlertEvaluator().assess(progress),
        }
