"""repro.serve — benchmark-as-a-service over plain HTTP.

The library's runs were already durable (``repro.runs``), observable
(``repro.obs``) and distributable (``repro.dist``); this package puts
them on the network.  A stdlib-only :class:`ReproServer`
(``http.server.ThreadingHTTPServer``, no framework dependency)
exposes REST endpoints for browsing taxonomies and question pools,
listing/showing/diffing ledgered runs (the exact JSON of the CLI's
``--json`` paths, via the shared :mod:`repro.serve.views` builders),
submitting evaluation runs that execute on background worker threads
(:class:`JobManager`), and a Server-Sent-Events stream that fans one
:class:`repro.obs.LedgerFollower` per run out to any number of
concurrent remote viewers (:class:`FollowerHub`) — the live ``repro
watch`` dashboard, as a service.  Runs are namespaced per tenant via
the ``X-Repro-Tenant`` header.

Quickstart::

    >>> from repro.serve import ReproServer
    >>> server = ReproServer(root="/tmp/runs", port=0).start()
    >>> # curl $URL/runs; curl -N $URL/runs/<id>/events
    >>> server.close()

Or from the shell: ``python -m repro serve --host 0.0.0.0 --port
8080 --runs-dir ~/runs``.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.serve.app": ("DEFAULT_MAX_BODY_BYTES", "DEFAULT_TENANT",
                        "TENANT_HEADER", "ReproServer"),
    "repro.serve.hub": ("FollowerHub", "Subscription"),
    "repro.serve.jobs": ("JOB_STATES", "Job", "JobManager"),
    "repro.serve.views": ("run_cell_rows", "run_diff_payload",
                          "run_result_payload", "run_show_payload",
                          "runs_list_payload"),
})
