"""Tests for the benchmark-as-a-service HTTP layer (``repro.serve``).

The acceptance criteria of the serving tentpole live here: REST
responses are byte-equal to the CLI's ``--json`` paths (one shared
builder, checked end to end), a run submitted over ``POST /runs`` can
be watched live by many concurrent SSE clients whose final streamed
snapshots agree bit-for-bit with each other and with the post-hoc
``load_run`` state, tenants are isolated, and malformed requests of
every shape produce structured JSON errors instead of stack traces.
"""

from __future__ import annotations

import collections
import http.client
import json
import os
import shutil
import socket
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.cli import main
from repro.dist import execute_run_sharded, gc_runs, merge_run
from repro.dist.planner import plan_shards, save_shard_plan
from repro.dist.worker import ShardLedger, run_shard
from repro.errors import RunError
from repro.llm.registry import get_model
from repro.obs.trail import trail_to_dict
from repro.runs import (RunRequest, create_run, execute_run, load_run,
                        replay_ledger, resume_run)
from repro.runs.ledger import RunLedger, fold_run_ledger
from repro.runs.registry import RunRegistry
from repro.serve import (DEFAULT_TENANT, TENANT_HEADER, ReproServer,
                         run_result_payload)
from repro.serve import views
from repro.serve.hub import FINAL_VIEW
from repro.serve.views import iter_question_records

SMALL = dict(models=("GPT-4",), taxonomy_keys=("ebay",),
             sample_size=8)
SMALL_BODY = {"models": ["GPT-4"], "taxonomy_keys": ["ebay"],
              "sample_size": 8}


@pytest.fixture()
def server(tmp_path):
    srv = ReproServer(root=tmp_path / "runs", port=0,
                      poll_interval_s=0.05, idle_grace_s=2.0).start()
    yield srv
    srv.close()


# ----------------------------------------------------------------------
# Minimal stdlib HTTP client helpers
# ----------------------------------------------------------------------
def _request(server, path, method="GET", body=None, headers=None,
             raw=None):
    """(status, decoded JSON) of one request; errors decode too."""
    data = raw
    request_headers = dict(headers or {})
    if body is not None:
        data = json.dumps(body).encode("utf-8")
        request_headers["Content-Type"] = "application/json"
    request = urllib.request.Request(server.url + path, method=method,
                                     data=data,
                                     headers=request_headers)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _get(server, path, headers=None):
    return _request(server, path, headers=headers)


def _get_raw(server, path) -> tuple[int, bytes]:
    """(status, body bytes) of one GET, undecoded."""
    try:
        with urllib.request.urlopen(server.url + path,
                                    timeout=30) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        with exc:
            return exc.code, exc.read()


def _post(server, path, body=None, headers=None, raw=None):
    return _request(server, path, method="POST", body=body,
                    headers=headers, raw=raw)


def _wait_job(server, job_id, headers=None, deadline_s=60.0):
    """Poll ``/jobs/<id>`` until it leaves the active states."""
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        status, job = _get(server, f"/jobs/{job_id}", headers=headers)
        assert status == 200
        if job["state"] in ("finished", "failed"):
            return job
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} never settled")


def _read_sse(server, path, headers=None, timeout_s=60.0):
    """Every ``(kind, raw_data)`` frame of one SSE stream, to EOF."""
    request = urllib.request.Request(server.url + path,
                                     headers=dict(headers or {}))
    frames = []
    with urllib.request.urlopen(request,
                                timeout=timeout_s) as response:
        assert response.status == 200
        assert response.headers["Content-Type"] == "text/event-stream"
        kind, data = None, None
        for line in response:
            line = line.decode("utf-8").rstrip("\n")
            if line.startswith(":"):
                continue                       # keep-alive comment
            if line.startswith("event: "):
                kind = line[len("event: "):]
            elif line.startswith("data: "):
                data = line[len("data: "):]
            elif not line:
                if kind is not None:
                    frames.append((kind, data))
                if kind == "done":
                    break
                kind, data = None, None
    return frames


def _cli_json(capsys, argv):
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


def _seed_run(server, tenant=DEFAULT_TENANT):
    """Execute one small run directly into the server's registry."""
    registry = server.registry_for(tenant)
    return execute_run(RunRequest(**SMALL), registry=registry)


class _Rebuilt:
    """Another model's answers under the same name: a rebuilt
    endpoint, so a diff against the original run has answer flips."""

    def __init__(self, inner, name: str):
        self.inner = inner
        self.name = name

    def generate(self, prompt: str) -> str:
        return self.inner.generate(prompt)


# ----------------------------------------------------------------------
# REST payloads == CLI --json payloads (shared builders, end to end)
# ----------------------------------------------------------------------
class TestRestMatchesCli:
    def test_runs_list(self, server, capsys):
        _seed_run(server)
        status, payload = _get(server, "/runs")
        assert status == 200
        assert payload == _cli_json(capsys, [
            "runs", "list", "--json", "--runs-dir", str(server.root)])
        assert len(payload) == 1 and payload[0]["finished"]

    def test_runs_show(self, server, capsys):
        result = _seed_run(server)
        status, payload = _get(server, f"/runs/{result.run_id}")
        assert status == 200
        assert payload == _cli_json(capsys, [
            "runs", "show", result.run_id, "--json",
            "--runs-dir", str(server.root)])
        assert payload["finished"] is True
        assert all(cell["status"] == "done"
                   for cell in payload["cells"])

    def test_runs_diff(self, server, capsys):
        first = _seed_run(server)
        second = _seed_run(server)
        path = f"/runs/{first.run_id}/diff/{second.run_id}"
        status, payload = _get(server, path)
        assert status == 200
        assert payload == _cli_json(capsys, [
            "runs", "diff", first.run_id, second.run_id, "--json",
            "--runs-dir", str(server.root)])
        assert payload["identical"] is True

    def test_rest_bodies_are_the_cli_json_bytes(self, server, capsys):
        """Byte for byte, not only the decoded payloads: each REST body
        is what the CLI's ``--json`` prints, minus print's newline."""
        registry = server.registry_for(DEFAULT_TENANT)
        request = RunRequest(**SMALL, trail=True)
        first = execute_run(request, registry=registry).run_id
        rebuilt = _Rebuilt(get_model("Llama-2-7B"), "GPT-4")
        second = execute_run(request, registry=registry,
                             resolve_model=lambda name: rebuilt).run_id
        runs_dir = ["--runs-dir", str(server.root)]
        views = [
            ("/runs", ["runs", "list", "--json"]),
            (f"/runs/{first}", ["runs", "show", first, "--json"]),
            (f"/runs/{first}/diff/{second}",
             ["runs", "diff", first, second, "--json"]),
            (f"/runs/{first}/trails", ["obs", "trails", first, "--json"]),
            (f"/runs/{first}/trail/5", ["obs", "why", first, "5",
                                        "--json"]),
        ]
        for path, argv in views:
            status, body = _get_raw(server, path)
            assert status == 200, path
            assert main(argv + runs_dir) == 0
            printed = capsys.readouterr().out
            assert printed.endswith("\n")
            assert body == printed[:-1].encode("utf-8"), path
        diff = json.loads(_get_raw(server, views[2][0])[1])
        assert diff["total_flips"] > 0

    def test_run_result_endpoint_matches_run_json_summary(
            self, server, capsys, tmp_path):
        runs_dir = str(server.root)
        cli = _cli_json(capsys, [
            "run", "--models", "GPT-4", "--taxonomies", "ebay",
            "--sample", "8", "--json", "--runs-dir", runs_dir])
        status, rest = _get(server, f"/runs/{cli['run_id']}/result")
        assert status == 200
        # The endpoint rebuilds from the ledger, so the live-only
        # bookkeeping differs (evaluated vs replayed); the scored
        # substance must agree exactly.
        assert rest["run_id"] == cli["run_id"]
        assert rest["request"] == cli["request"]
        assert rest["cells"] == cli["cells"]
        assert rest["stats"] == cli["stats"]
        assert cli["evaluated"] == 32 and cli["replayed"] == 0
        assert rest["replayed"] == 32 and rest["evaluated"] == 0

    def test_trail_endpoints_match_obs_cli(self, server, capsys):
        registry = server.registry_for(DEFAULT_TENANT)
        result = execute_run(RunRequest(**SMALL, trail=True),
                             registry=registry)
        status, one = _get(server, f"/runs/{result.run_id}/trail/0")
        assert status == 200
        assert one == _cli_json(capsys, [
            "obs", "why", result.run_id, "0", "--json",
            "--runs-dir", str(server.root)])
        assert one["index"] == 0
        assert one["trail"] is not None
        status, many = _get(server, f"/runs/{result.run_id}/trails")
        assert status == 200
        assert many == _cli_json(capsys, [
            "obs", "trails", result.run_id, "--json",
            "--runs-dir", str(server.root)])
        assert many["totals"]["with_trail"] > 0
        # Out-of-range index and non-integer index are 4xx, not 500s.
        status, error = _get(server,
                             f"/runs/{result.run_id}/trail/9999")
        assert status == 400 and "9999" in error["error"]["message"]
        status, error = _get(server, f"/runs/{result.run_id}/trail/x")
        assert status == 400

    def test_runs_resume_json_summary(self, server, capsys):
        result = _seed_run(server)
        cli = _cli_json(capsys, [
            "runs", "resume", result.run_id, "--json",
            "--runs-dir", str(server.root)])
        assert cli["run_id"] == result.run_id
        assert cli["replayed"] == result.evaluated
        assert cli["evaluated"] == 0
        assert cli == run_result_payload(
            load_run(result.run_id,
                     registry=server.registry_for(DEFAULT_TENANT)))


# ----------------------------------------------------------------------
# Browsing endpoints
# ----------------------------------------------------------------------
class TestBrowsing:
    def test_index_and_health(self, server):
        status, index = _get(server, "/")
        assert status == 200
        assert index["service"] == "repro-serve"
        assert "GET /runs/<id>/events" in index["endpoints"]
        status, health = _get(server, "/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert health["runs_root"] == str(server.root)
        assert health["jobs"] == {"total": 0, "active": 0}

    def test_taxonomies_and_detail(self, server):
        status, rows = _get(server, "/taxonomies")
        assert status == 200
        assert len(rows) == 10
        assert {"key", "name", "domain", "levels", "trees",
                "entities"} <= set(rows[0])
        status, detail = _get(server, "/taxonomies/ebay")
        assert status == 200
        assert detail["key"] == "ebay"
        assert detail["entities_built"] == detail["entities"]
        assert len(detail["level_widths_built"]) == detail["levels"]

    def test_models_and_pools(self, server):
        status, models = _get(server, "/models")
        assert status == 200
        assert "GPT-4" in models["models"]
        status, pool = _get(server, "/pools/ebay?sample=10")
        assert status == 200
        assert pool["taxonomy"] == "ebay"
        assert pool["sample_size"] == 10
        assert pool["levels"][-1]["level"] == "total"


# ----------------------------------------------------------------------
# Run submission + background execution
# ----------------------------------------------------------------------
class TestSubmission:
    def test_post_runs_executes_in_background(self, server):
        status, accepted = _post(server, "/runs", body=SMALL_BODY)
        assert status == 202
        run_id = accepted["run_id"]
        assert accepted["job"]["kind"] == "run"
        assert accepted["job"]["run_id"] == run_id
        # Admission is synchronous: the run id resolves immediately,
        # even before the first question is answered.
        status, shown = _get(server, f"/runs/{run_id}")
        assert status == 200
        job = _wait_job(server, accepted["job"]["job_id"])
        assert job["state"] == "finished", job["error"]
        assert job["evaluated"] == 32 and job["cells"] == 1
        assert job["stats"]["records"] == 32
        status, shown = _get(server, f"/runs/{run_id}")
        assert shown["finished"] is True
        loaded = load_run(run_id,
                          registry=server.registry_for(DEFAULT_TENANT))
        assert sum(cell.metrics.n
                   for cell in loaded.cells.values()) == 32

    def test_post_resume_replays_finished_run(self, server):
        result = _seed_run(server)
        status, accepted = _post(server,
                                 f"/runs/{result.run_id}/resume")
        assert status == 202
        job = _wait_job(server, accepted["job"]["job_id"])
        assert job["state"] == "finished", job["error"]
        assert job["kind"] == "resume"
        assert job["replayed"] == result.evaluated
        assert job["evaluated"] == 0

    def test_jobs_listing_tracks_submissions(self, server):
        status, jobs = _get(server, "/jobs")
        assert status == 200 and jobs == []
        _, accepted = _post(server, "/runs", body=SMALL_BODY)
        _wait_job(server, accepted["job"]["job_id"])
        status, jobs = _get(server, "/jobs")
        assert [job["job_id"] for job in jobs] == \
            [accepted["job"]["job_id"]]


# ----------------------------------------------------------------------
# Live SSE streaming (the tentpole acceptance test)
# ----------------------------------------------------------------------
class TestLiveStreaming:
    VIEWERS = 10

    def test_many_concurrent_viewers_converge_bitwise(self, server):
        _, accepted = _post(server, "/runs",
                            body={**SMALL_BODY, "sample_size": 16})
        run_id = accepted["run_id"]
        results: list[list] = [None] * self.VIEWERS
        errors: list[BaseException] = []

        def view(slot: int) -> None:
            try:
                results[slot] = _read_sse(server,
                                          f"/runs/{run_id}/events")
            except BaseException as exc:  # surfaced after join
                errors.append(exc)

        threads = [threading.Thread(target=view, args=(slot,))
                   for slot in range(self.VIEWERS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert all(frames is not None for frames in results)
        finals = []
        for frames in results:
            kinds = [kind for kind, _ in frames]
            assert kinds[-1] == "done"
            snapshots = [data for kind, data in frames
                         if kind == "snapshot"]
            assert snapshots, "viewer saw no snapshot at all"
            finals.append(snapshots[-1])
        # Every viewer's final snapshot is bit-for-bit identical.
        assert len(set(finals)) == 1
        final = json.loads(finals[0])
        # ... and agrees exactly with the post-hoc replayed state.
        loaded = load_run(run_id,
                          registry=server.registry_for(DEFAULT_TENANT))
        assert final["finished"] is True
        assert final["status"] == "finished"
        planned = sum(cell.metrics.n
                      for cell in loaded.cells.values())
        assert final["questions_done"] == planned
        correct = sum(
            round(cell.metrics.accuracy * cell.metrics.n)
            for cell in loaded.cells.values())
        assert final["correct"] == correct
        by_cell = {key.cell_id: cell
                   for key, cell in loaded.cells.items()}
        assert len(final["cells"]) == len(by_cell)
        for cell in final["cells"]:
            assert cell["complete"] is True
            assert cell["done"] == by_cell[cell["cell"]].metrics.n

    def test_late_subscriber_is_served_from_cached_final(self,
                                                         server):
        _, accepted = _post(server, "/runs", body=SMALL_BODY)
        run_id = accepted["run_id"]
        _wait_job(server, accepted["job"]["job_id"])
        first = _read_sse(server, f"/runs/{run_id}/events")
        again = _read_sse(server, f"/runs/{run_id}/events")
        for frames in (first, again):
            assert [kind for kind, _ in frames][-1] == "done"
            final = json.loads([data for kind, data in frames
                                if kind == "snapshot"][-1])
            assert final["finished"] is True
        # The final is kept with the ledger version, and the fast path
        # costs no broadcast.
        assert server.registry_for(DEFAULT_TENANT).kept(
            run_id, FINAL_VIEW) == final
        assert server.hub.stats()["broadcasts"] == 0

    def test_a_final_read_past_its_ledger_version_is_kept(
            self, server, monkeypatch):
        """The run-finished line can land between the follower's stat
        of the ledger and its fold: the final it reads is kept all the
        same, so a late subscriber gets the same bytes."""
        from repro.obs import live
        registry = server.registry_for(DEFAULT_TENANT)
        run_id = create_run(RunRequest(**SMALL), registry=registry)
        path = registry.ledger_path(run_id)
        with RunLedger(path) as ledger:
            ledger.run_started(run_id)
        real = live.fold_run_ledger

        def racing(*args, **kwargs):
            if not replay_ledger(path).finished:
                with RunLedger(path) as ledger:
                    ledger.run_finished(0)
            return real(*args, **kwargs)

        monkeypatch.setattr(live, "fold_run_ledger", racing)
        finals = []
        for _ in range(2):
            frames = _read_sse(server, f"/runs/{run_id}/events")
            finals.append([data for kind, data in frames
                           if kind == "snapshot"][-1])
        assert json.loads(finals[0])["finished"] is True
        assert finals[1] == finals[0]
        assert registry.kept(run_id, FINAL_VIEW) == json.loads(finals[0])
        assert server.hub.stats()["broadcasts"] == 0

    def test_limit_query_truncates_the_stream(self, server):
        result = _seed_run(server)
        frames = _read_sse(server,
                           f"/runs/{result.run_id}/events?limit=1")
        snapshots = [data for kind, data in frames
                     if kind == "snapshot"]
        assert len(snapshots) == 1

    def test_progress_endpoint_serves_one_snapshot(self, server):
        result = _seed_run(server)
        status, snapshot = _get(server,
                                f"/runs/{result.run_id}/progress")
        assert status == 200
        assert snapshot["run_id"] == result.run_id
        assert snapshot["finished"] is True
        assert snapshot["questions_done"] == result.evaluated


    def test_kept_final_serves_late_subscribers_until_a_resume(
            self, server, monkeypatch):
        from repro.serve import hub as hub_module
        started: list[str] = []
        start = hub_module._Broadcast.start
        monkeypatch.setattr(hub_module._Broadcast, "start",
                            lambda self: (started.append(self.run_id),
                                          start(self)))
        registry = server.registry_for(DEFAULT_TENANT)
        run_id = execute_run(RunRequest(models=("GPT-4", "LLMs4OL"),
                                        taxonomy_keys=("ebay",),
                                        sample_size=6, max_tokens=1),
                             registry=registry).run_id

        def final() -> str:
            frames = _read_sse(server, f"/runs/{run_id}/events")
            assert frames[-1][0] == "done"
            return [data for kind, data in frames
                    if kind == "snapshot"][-1]

        stopped = final()
        assert json.loads(stopped)["status"] == "budget-stopped"
        assert final() == stopped and final() == stopped
        assert started == [run_id]          # no broadcast for the rest
        assert main(["runs", "resume", run_id, "--runs-dir",
                     str(server.root)]) == 0
        finished = final()
        assert json.loads(finished)["status"] == "finished"
        assert final() == finished
        assert started == [run_id, run_id]

    def test_an_over_budget_run_is_folded_once_per_subscriber(
            self, server, folds, monkeypatch):
        run_id = _seed_run(server).run_id
        ledger = server.registry_for(DEFAULT_TENANT).ledger_path(run_id)
        monkeypatch.setattr("repro.runs.registry.STATE_CACHE_BYTES",
                            ledger.stat().st_size - 1)
        for _ in range(2):        # nothing is kept, nothing replayed
            folds.clear()
            frames = _read_sse(server, f"/runs/{run_id}/events")
            assert [kind for kind, _ in frames][-1] == "done"
            assert [(name, path, start) for name, path, start, _, _
                    in folds if path == ledger] == [
                ("fold_run_ledger", ledger, 0)]

    def test_a_damaged_span_log_keeps_every_live_view(self, server):
        registry = server.registry_for(DEFAULT_TENANT)
        run_id = execute_run(RunRequest(models=("GPT-4",),
                                        taxonomy_keys=("ebay",),
                                        sample_size=6),
                             registry=registry).run_id
        path = registry.spans_path(run_id)
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:3] + [b"garbage{\n"]
                                  + lines[3:]))
        status, progress = _get(server, f"/runs/{run_id}/progress")
        assert status == 200, progress
        assert progress["finished"] and progress["spans"] == len(lines)
        status, alerts = _get(server, f"/runs/{run_id}/alerts")
        assert status == 200 and alerts["status"] == "finished"
        for _ in range(2):        # the second is served after the first
            frames = _read_sse(server, f"/runs/{run_id}/events",
                               timeout_s=10.0)
            assert [kind for kind, _ in frames][-1] == "done"
            final = json.loads([data for kind, data in frames
                                if kind == "snapshot"][-1])
            assert final["finished"] and final["spans"] == len(lines)
        assert server.hub.stats()["broadcasts"] == 0

    def test_a_failing_broadcast_ends_its_stream_and_unregisters(
            self, server, monkeypatch):
        from repro.obs.live import LedgerFollower

        def fail(self):
            raise RuntimeError("follower broke")

        run_id = _seed_run(server).run_id
        monkeypatch.setattr(LedgerFollower, "poll", fail)
        for _ in range(2):        # the second gets a broadcast of its own
            frames = _read_sse(server, f"/runs/{run_id}/events",
                               timeout_s=10.0)
            assert [kind for kind, _ in frames] == ["error", "done"]
            assert "follower broke" in json.loads(frames[0][1])["message"]
            assert server.hub.stats()["broadcasts"] == 0

    def test_repeat_progress_and_alerts_fold_nothing(self, server, folds):
        run_id = _seed_run(server).run_id
        for endpoint in ("progress", "alerts"):
            status, first = _get(server, f"/runs/{run_id}/{endpoint}")
            assert status == 200
            folds.clear()
            status, again = _get(server, f"/runs/{run_id}/{endpoint}")
            assert status == 200 and again["status"] == first["status"]
            assert folds == [], endpoint

    def test_subscribing_to_a_live_run_folds_nothing(self, server, folds):
        registry = server.registry_for(DEFAULT_TENANT)
        request = RunRequest(**SMALL)
        run_id = create_run(request, registry=registry)
        dying = _DiesAfter(get_model("GPT-4"), 5)
        with pytest.raises(RuntimeError):
            execute_run(request, registry=registry, run_id=run_id,
                        resolve_model=lambda name: dying)
        here = threading.current_thread()
        first = server.hub.subscribe(DEFAULT_TENANT, run_id, registry)
        second = server.hub.subscribe(DEFAULT_TENANT, run_id, registry)
        try:
            kind, snapshot = next(second.events(timeout_s=10.0))
            assert kind == "snapshot" and not snapshot["finished"]
            assert folds and all(thread is not here
                                 for *_, thread in folds)
            assert server.hub.stats()["broadcasts"] == 1
        finally:
            first.close()
            second.close()


# ----------------------------------------------------------------------
# A budget stop reads as one in the job and the live views
# ----------------------------------------------------------------------
#: Stops after the first of its two cells.
BUDGET_BODY = {"models": ["GPT-4", "LLMs4OL"], "taxonomy_keys": ["ebay"],
               "sample_size": 6, "max_tokens": 1}


class TestBudgetStop:
    def test_job_reports_the_budget(self, server):
        _, capped = _post(server, "/runs", body=BUDGET_BODY)
        _, plain = _post(server, "/runs", body=SMALL_BODY)
        job = _wait_job(server, capped["job"]["job_id"])
        assert (job["state"], job["cells"]) == ("finished", 1)
        assert job["budget"]["limit"] == "max_tokens"
        assert _wait_job(server, plain["job"]["job_id"])["budget"] is None
        _, runs = _get(server, "/runs")
        assert {row["run_id"]: row["status"] for row in runs}[
            capped["run_id"]] == "budget-stopped"

    @pytest.fixture()
    def stopped(self, server) -> str:
        _, accepted = _post(server, "/runs", body=BUDGET_BODY)
        _wait_job(server, accepted["job"]["job_id"])
        return accepted["run_id"]

    def test_progress_reports_the_stop(self, server, stopped):
        _, progress = _get(server, f"/runs/{stopped}/progress")
        assert progress["status"] == "budget-stopped"
        _, alerts = _get(server, f"/runs/{stopped}/alerts")
        assert alerts["status"] == "budget-stopped"

    def test_event_stream_ends_on_the_stop(self, server, stopped):
        subscription = server.hub.subscribe(
            DEFAULT_TENANT, stopped, server.registry_for(DEFAULT_TENANT))
        kinds = []
        for kind, _ in subscription.events(timeout_s=5.0):
            kinds.append(kind)
            if len(kinds) > 20:
                break
        subscription.close()
        assert kinds[-1] == "done"


# ----------------------------------------------------------------------
# Flow control: one slow subscriber must never hurt the broadcast
# ----------------------------------------------------------------------
class TestFlowControl:
    def test_bounded_queue_drops_oldest_never_blocks(self,
                                                     monkeypatch):
        from repro.serve import hub as hub_module
        monkeypatch.setattr(hub_module, "SUBSCRIBER_QUEUE_SLOTS", 8)
        subscription = hub_module.Subscription()
        # Publish far past capacity without a consumer: must return
        # promptly every time (a blocking put would hang the test).
        for seq in range(50):
            subscription.publish("snapshot", {"seq": seq})
        subscription.end({"run_id": "r"})
        assert subscription._queue.qsize() <= 8
        frames = list(subscription.events(timeout_s=0.2))
        kinds = [kind for kind, _ in frames]
        assert kinds[-1] == "done"
        seqs = [payload["seq"] for kind, payload in frames
                if kind == "snapshot"]
        # Oldest frames were dropped; the survivors are the newest,
        # contiguous, in publish order, ending with the final one.
        assert 0 < len(seqs) < 50
        assert seqs == list(range(seqs[0], 50))
        assert seqs[-1] == 49

    def test_slow_subscriber_keeps_final_fast_peers_unaffected(
            self, server, monkeypatch):
        from repro.serve import hub as hub_module
        monkeypatch.setattr(hub_module, "SUBSCRIBER_QUEUE_SLOTS", 3)
        registry = server.registry_for(DEFAULT_TENANT)
        _, accepted = _post(server, "/runs",
                            body={**SMALL_BODY, "sample_size": 16})
        run_id = accepted["run_id"]
        # The slow client subscribes but consumes nothing while the
        # run streams — its queue saturates at 3 slots.
        slow = server.hub.subscribe(DEFAULT_TENANT, run_id, registry)
        # A fast client must still stream to completion: the
        # broadcaster never blocks on the saturated peer.
        fast_frames = _read_sse(server, f"/runs/{run_id}/events")
        assert [kind for kind, _ in fast_frames][-1] == "done"
        fast_final = json.loads([data for kind, data in fast_frames
                                 if kind == "snapshot"][-1])
        assert slow._queue.qsize() <= 4        # 3 slots + "done"
        slow_frames = list(slow.events(timeout_s=5.0))
        slow.close()
        assert [kind for kind, _ in slow_frames][-1] == "done"
        slow_final = [payload for kind, payload in slow_frames
                      if kind == "snapshot"][-1]
        # Drop-oldest preserved the final frame bit for bit.
        assert slow_final == fast_final
        assert slow_final["finished"] is True


# ----------------------------------------------------------------------
# Served reads replay each ledger once per version
# ----------------------------------------------------------------------
class TestStateCache:
    def test_repeat_reads_replay_nothing(self, server, monkeypatch):
        registry = server.registry_for(DEFAULT_TENANT)
        first, second = (
            execute_run(RunRequest(**SMALL, trail=True),
                        registry=registry).run_id
            for _ in range(2))
        replays = []

        def counting(path, *args, **kwargs):
            replays.append(path)
            return fold_run_ledger(path, *args, **kwargs)

        monkeypatch.setattr("repro.runs.registry.fold_run_ledger",
                            counting)
        for path in ("/runs", f"/runs/{first}",
                     f"/runs/{first}/diff/{second}",
                     f"/runs/{first}/trails",
                     f"/runs/{first}/trail/3"):
            status, cold = _get(server, path)
            assert status == 200
            replays.clear()
            status, warm = _get(server, path)
            assert status == 200 and warm == cold
            assert replays == [], path
            # No view mutates the shared state it was handed.
            for run_id in (first, second):
                assert registry.state(run_id) == replay_ledger(
                    registry.ledger_path(run_id))


# ----------------------------------------------------------------------
# A sealed run's views are built and encoded once per ledger version
# ----------------------------------------------------------------------
_BUILDERS = ("run_show_payload", "run_trails_payload", "diff_runs",
             "load_run", "run_result_payload", "_question_index",
             "dumps_view")


@pytest.fixture()
def builds(monkeypatch) -> collections.Counter:
    """Calls of the ledger replay, the view builders, the listing row
    builder and the encoder (the real ones still run)."""
    from repro.runs import registry as registry_module
    from repro.serve import app
    counts: collections.Counter = collections.Counter()

    def counting(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(registry_module, "fold_run_ledger", counting(
        "fold_run_ledger", registry_module.fold_run_ledger))
    monkeypatch.setattr(registry_module.RunRegistry, "_summary", counting(
        "_summary", registry_module.RunRegistry._summary))
    for name in _BUILDERS:
        monkeypatch.setattr(views, name,
                            counting(name, getattr(views, name)))
    # The server encodes the bodies no view function encoded.
    monkeypatch.setattr(app, "dumps_view",
                        counting("dumps_view", app.dumps_view))
    return counts


def _fresh_body(server, path: str, tenant: str = DEFAULT_TENANT) -> bytes:
    """What the view builders make of the run files now, through a
    registry that has nothing cached, encoded by ``json.dumps``."""
    registry = RunRegistry(server.registry_for(tenant).root)
    parts = path.strip("/").split("/")
    if len(parts) == 1:
        payload = views.runs_list_payload(registry)
    elif len(parts) == 2:
        payload = views.run_show_payload(registry, parts[1])
    elif parts[2] == "diff":
        payload = views.run_diff_payload(registry, parts[1], parts[3])
    elif parts[2] == "trails":
        payload = views.run_trails_payload(registry, parts[1])
    elif parts[2] == "result":
        payload = run_result_payload(load_run(parts[1], registry=registry))
    else:
        payload = views.run_trail_payload(registry, parts[1],
                                          int(parts[3]))
    return json.dumps(payload, indent=1).encode("utf-8")


def _reads(server, paths, headers=None) -> dict[str, bytes]:
    """Each path's 200 body, undecoded."""
    bodies = {}
    for path in paths:
        request = urllib.request.Request(server.url + path,
                                         headers=dict(headers or {}))
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.status == 200, path
            bodies[path] = response.read()
    return bodies


class _DiesAfter:
    """A model that dies after ``budget`` answers, so its run stops
    mid-cell with this live process's pid in its ledger."""

    def __init__(self, inner, budget: int):
        self.inner = inner
        self.name = inner.name
        self.budget = budget

    def generate(self, prompt: str) -> str:
        if self.budget <= 0:
            raise RuntimeError("injected worker death")
        self.budget -= 1
        return self.inner.generate(prompt)


class TestViewMemo:
    TWO_CELLS = dict(models=("GPT-4", "LLMs4OL"), taxonomy_keys=("ebay",),
                     sample_size=8)

    def test_warm_reads_replay_build_and_encode_nothing(self, server,
                                                        builds):
        registry = server.registry_for(DEFAULT_TENANT)
        request = RunRequest(**SMALL, trail=True)
        first = execute_run(request, registry=registry).run_id
        rebuilt = _Rebuilt(get_model("Llama-2-7B"), "GPT-4")
        second = execute_run(request, registry=registry,
                             resolve_model=lambda name: rebuilt).run_id
        memoized = (f"/runs/{first}", f"/runs/{first}/diff/{second}",
                    f"/runs/{second}/diff/{first}",
                    f"/runs/{first}/trails", f"/runs/{first}/result")
        # The list document and a trail body are encoded per read;
        # the rows and the question index behind them are kept.
        encoded = ("/runs", f"/runs/{first}/trail/3")
        for path in memoized + encoded:
            cold = _reads(server, [path])[path]
            builds.clear()
            warm = _reads(server, [path])[path]
            assert warm == cold
            assert dict(builds) == ({"dumps_view": 1} if path in encoded
                                    else {}), path
            assert warm == _fresh_body(server, path)

    def test_bodies_follow_a_resume(self, server):
        registry = server.registry_for(DEFAULT_TENANT)
        run_id = execute_run(RunRequest(**self.TWO_CELLS, max_tokens=1),
                             registry=registry).run_id
        assert registry.state(run_id).budget_stopped       # sealed
        paths = ("/runs", f"/runs/{run_id}", f"/runs/{run_id}/trails",
                 f"/runs/{run_id}/result")
        stopped = _reads(server, paths)
        assert _reads(server, paths) == stopped
        resume_run(run_id, registry=registry)
        finished = _reads(server, paths)
        for path in paths:
            assert finished[path] != stopped[path], path
            assert finished[path] == _fresh_body(server, path), path

    def test_bodies_follow_a_forced_merge(self, server, builds):
        registry = server.registry_for(DEFAULT_TENANT)
        run_id = execute_run_sharded(RunRequest(**SMALL), shards=2,
                                     registry=registry, procs=0).run_id
        paths = ("/runs", f"/runs/{run_id}", f"/runs/{run_id}/result")
        merged = _reads(server, paths)
        # A second attempt of shard 0 changes that shard's row ...
        with ShardLedger(registry.shard_ledger_path(run_id, 0)) as ledger:
            ledger.shard_started(run_id, 0, attempt=2)
            ledger.shard_finished(0)
        show = _reads(server, paths[1:2])[paths[1]]
        assert show != merged[paths[1]]
        assert show == _fresh_body(server, paths[1])
        # ... and the re-merge, swapped in under a new inode, the run's.
        inode = registry.ledger_path(run_id).stat().st_ino
        merge_run(run_id, registry=registry, force=True)
        assert registry.ledger_path(run_id).stat().st_ino != inode
        builds.clear()
        remerged = _reads(server, paths)
        assert builds["fold_run_ledger"] == 1
        assert builds["_summary"] == 1
        assert builds["run_show_payload"] == 1
        assert builds["run_result_payload"] == 1
        assert json.loads(remerged[paths[1]])["attempts"] == 2
        for path in paths:
            assert remerged[path] == _fresh_body(server, path), path

    def test_a_recreated_run_gets_new_bodies(self, server):
        registry = server.registry_for(DEFAULT_TENANT)
        request = RunRequest(**SMALL, trail=True)
        run_id = execute_run(request, registry=registry).run_id
        paths = ("/runs", f"/runs/{run_id}", f"/runs/{run_id}/trails",
                 f"/runs/{run_id}/result", f"/runs/{run_id}/trail/0")
        before = _reads(server, paths)
        shutil.rmtree(registry.run_dir(run_id))
        for path in paths[1:]:
            assert _get(server, path)[0] == 404
        rebuilt = _Rebuilt(get_model("Llama-2-7B"), "GPT-4")
        again = execute_run(request, registry=registry,
                            resolve_model=lambda name: rebuilt).run_id
        assert again == run_id
        after = _reads(server, paths)
        for path in paths:
            assert after[path] == _fresh_body(server, path), path
        assert after[paths[0]] != before[paths[0]]          # created_at
        assert after[paths[1]] != before[paths[1]]
        assert after[paths[3]] != before[paths[3]]

    def test_gc_of_merged_shards_rebuilds_show(self, server, builds):
        registry = server.registry_for(DEFAULT_TENANT)
        run_id = execute_run_sharded(RunRequest(**SMALL), shards=2,
                                     registry=registry, procs=0).run_id
        path = f"/runs/{run_id}"
        before = _reads(server, [path])[path]
        report = gc_runs(registry, min_age_s=0)
        assert [c.reason for c in report.removed] == ["merged-shards"]
        builds.clear()
        after = _reads(server, [path])[path]
        assert builds["run_show_payload"] == 1       # the shards went
        assert after == _fresh_body(server, path)
        # A pruned shard of a finished run still reads finished.
        assert json.loads(after)["shards"] == json.loads(before)["shards"]
        builds.clear()
        assert _reads(server, [path])[path] == after
        assert dict(builds) == {}

    def test_tenants_holding_one_run_id_get_their_own_bodies(self,
                                                             server):
        team = {TENANT_HEADER: "t1"}
        request = RunRequest(**SMALL, trail=True)
        ours = execute_run(request,
                           registry=server.registry_for(DEFAULT_TENANT))
        rebuilt = _Rebuilt(get_model("Llama-2-7B"), "GPT-4")
        theirs = execute_run(request, registry=server.registry_for("t1"),
                             resolve_model=lambda name: rebuilt)
        assert theirs.run_id == ours.run_id        # content-addressed
        paths = [f"/runs/{ours.run_id}{suffix}" for suffix in
                 ("", "/trails", "/result", "/trail/0")]
        for _ in range(2):                         # cold, then warm
            mine = _reads(server, paths)
            other = _reads(server, paths, headers=team)
            for path in paths:
                assert mine[path] == _fresh_body(server, path), path
                assert other[path] == _fresh_body(server, path,
                                                  "t1"), path
            assert mine[paths[0]] != other[paths[0]]
            assert mine[paths[2]] != other[paths[2]]

    def test_live_runs_are_rebuilt_on_every_read(self, server, builds):
        registry = server.registry_for(DEFAULT_TENANT)
        request = RunRequest(**SMALL)
        crashed = create_run(request, registry=registry)
        dying = _DiesAfter(get_model("GPT-4"), 5)
        with pytest.raises(RuntimeError):
            execute_run(request, registry=registry, run_id=crashed,
                        resolve_model=lambda name: dying)
        unmerged = registry.create(RunRequest(**self.TWO_CELLS), cells=2)
        plan = plan_shards(RunRequest(**self.TWO_CELLS), 2)
        save_shard_plan(registry, unmerged, plan)
        for shard in range(2):
            run_shard(unmerged, shard, registry=registry, plan=plan)

        def statuses() -> dict[str, str]:
            return {row["run_id"]: row["status"]
                    for row in json.loads(_reads(server, ["/runs"])
                                          ["/runs"])}

        def each_read_builds(run_id: str) -> None:
            for _ in range(2):
                for path, builder in (
                        ("/runs", "_summary"),
                        (f"/runs/{run_id}", "run_show_payload"),
                        (f"/runs/{run_id}/trails", "run_trails_payload"),
                        (f"/runs/{run_id}/result", "load_run")):
                    builds.clear()
                    body = _reads(server, [path])[path]
                    assert builds[builder] >= 1, (path, dict(builds))
                    if path != "/runs":    # no clock in these bodies
                        assert body == _fresh_body(server, path), path

        assert statuses() == {crashed: "running", unmerged: "unmerged"}
        each_read_builds(crashed)
        each_read_builds(unmerged)
        # Age the crashed run past the stall deadline.
        old = time.time() - 3600
        for path in (registry.heartbeat_path(crashed),
                     registry.ledger_path(crashed),
                     registry.spans_path(crashed)):
            if path.exists():
                os.utime(path, (old, old))
        assert statuses()[crashed] == "stalled"
        each_read_builds(crashed)

    def test_readers_racing_an_appender_see_some_version(self, server):
        """8 reader threads and one appender: every body read equals
        the builders' output for some version of the ledger."""
        registry = server.registry_for(DEFAULT_TENANT)
        run_id = execute_run(RunRequest(**self.TWO_CELLS, trail=True),
                             registry=registry).run_id
        ledger = registry.ledger_path(run_id)
        # Re-recording question i under a fresh index keeps the run
        # finished (sealed) and changes both bodies.
        records = [json.loads(line) for line in
                   ledger.read_text(encoding="utf-8").splitlines()
                   if '"record"' in line][:24]
        extra = [json.dumps({**event, "i": 1000 + n}) + "\n"
                 for n, event in enumerate(records)]
        builders = {"show": views.run_show_body,
                    "trails": views.run_trails_body}
        seen: dict[str, set[bytes]] = {name: set() for name in builders}
        lock = threading.Lock()
        done = threading.Event()
        errors: list[BaseException] = []

        def reader() -> None:
            try:
                while not done.is_set():
                    for name, body in builders.items():
                        text = body(registry, run_id)
                        with lock:
                            seen[name].add(text)
            except BaseException as exc:  # reported below
                errors.append(exc)

        def appender() -> None:
            try:
                with open(ledger, "a", encoding="utf-8") as out:
                    for line in extra:
                        out.write(line)
                        out.flush()
                        time.sleep(0.002)
            finally:
                done.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=reader) for _ in range(8)]
            threads.append(threading.Thread(target=appender))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        # Each version's bodies, built from a copy of the ledger as it
        # stood after each append.
        copy_root = server.root.parent / "versions"
        copy = RunRegistry(copy_root)
        shutil.copytree(registry.run_dir(run_id), copy.run_dir(run_id))
        base = ledger.read_bytes()[:-sum(len(line) for line in extra)]
        expected: dict[str, list[bytes]] = {name: [] for name in builders}
        for count in range(len(extra) + 1):
            copy.ledger_path(run_id).write_bytes(
                base + "".join(extra[:count]).encode("utf-8"))
            fresh = RunRegistry(copy_root)
            expected["show"].append(json.dumps(
                views.run_show_payload(fresh, run_id), indent=1).encode())
            expected["trails"].append(json.dumps(
                views.run_trails_payload(fresh, run_id),
                indent=1).encode())
        for name, body in builders.items():
            assert seen[name] and seen[name] <= set(expected[name]), name
            assert body(registry, run_id) == expected[name][-1], name


class TestTrailIndex:
    @staticmethod
    def _scanned(registry, run_id: str, index: int) -> dict:
        """The trail payload found by walking every question up to
        ``index``: the reference the index must match."""
        state = registry.state(run_id)
        for ordinal, cell_id, local, record in \
                iter_question_records(state):
            if ordinal == index:
                return {
                    "run_id": run_id, "index": ordinal, "cell": cell_id,
                    "cell_index": local, "uid": record.question_uid,
                    "model": record.model, "setting": record.setting,
                    "parsed": record.parsed.value,
                    "expected": record.expected.value,
                    "correct": record.correct, "missed": record.missed,
                    "prompt_tokens": record.prompt_tokens,
                    "completion_tokens": record.completion_tokens,
                    "trail": (trail_to_dict(record.trail)
                              if record.trail is not None else None),
                }
        raise AssertionError(f"no question {index}")

    def test_every_index_matches_the_scan(self, tmp_path):
        registry = RunRegistry(tmp_path / "runs")
        request = RunRequest(**TestViewMemo.TWO_CELLS, trail=True)
        finished = execute_run(request, registry=registry).run_id
        # A run that died mid-cell: unsealed, with a partial cell.
        partial = create_run(RunRequest(**SMALL, trail=True),
                             registry=registry)
        dying = _DiesAfter(get_model("GPT-4"), 5)
        with pytest.raises(RuntimeError):
            execute_run(RunRequest(**SMALL, trail=True),
                        registry=registry, run_id=partial,
                        resolve_model=lambda name: dying)
        for run_id in (finished, partial):
            total = registry.state(run_id).recorded_questions
            assert total > 0
            for index in range(total):
                assert views.run_trail_payload(registry, run_id, index) \
                    == self._scanned(registry, run_id, index)
            for index in (total, -1):
                with pytest.raises(RunError, match=(
                        f"run {run_id} has {total} recorded questions; "
                        f"no question index {index}$")):
                    views.run_trail_payload(registry, run_id, index)


# ----------------------------------------------------------------------
# Tenancy
# ----------------------------------------------------------------------
class TestTenancy:
    TEAM = {TENANT_HEADER: "team-a"}

    def test_tenants_have_disjoint_registries(self, server):
        ours = _seed_run(server)
        # A different request, so the fingerprint-derived run ids
        # cannot collide across the two namespaces.
        theirs = execute_run(
            RunRequest(**{**SMALL, "sample_size": 6}),
            registry=server.registry_for("team-a"))
        status, default_runs = _get(server, "/runs")
        assert [run["run_id"] for run in default_runs] == \
            [ours.run_id]
        status, team_runs = _get(server, "/runs", headers=self.TEAM)
        assert [run["run_id"] for run in team_runs] == \
            [theirs.run_id]
        # A tenant cannot see another tenant's run.
        status, _ = _get(server, f"/runs/{ours.run_id}",
                         headers=self.TEAM)
        assert status == 404

    def test_tenant_registry_nests_under_root(self, server):
        registry = server.registry_for("team-a")
        assert registry.root == server.root / "tenants" / "team-a"
        default = server.registry_for(DEFAULT_TENANT)
        assert default.root == server.root
        # Every tenant's registry reads through the server's one cache.
        assert registry.state_cache is default.state_cache \
            is server.state_cache

    def test_jobs_are_tenant_scoped(self, server):
        _, accepted = _post(server, "/runs", body=SMALL_BODY,
                            headers=self.TEAM)
        _wait_job(server, accepted["job"]["job_id"],
                  headers=self.TEAM)
        status, default_jobs = _get(server, "/jobs")
        assert default_jobs == []
        status, _ = _get(server,
                         f"/jobs/{accepted['job']['job_id']}")
        assert status == 404


# ----------------------------------------------------------------------
# Hardening: every malformed request gets a structured JSON error
# ----------------------------------------------------------------------
class TestHardening:
    def _expect_error(self, server, path, status, code, method="GET",
                      body=None, headers=None, raw=None):
        got_status, payload = _request(server, path, method=method,
                                       body=body, headers=headers,
                                       raw=raw)
        assert got_status == status, payload
        assert payload["error"]["status"] == status
        assert payload["error"]["code"] == code
        assert payload["error"]["message"]

    def test_unknown_routes_404(self, server):
        self._expect_error(server, "/nope", 404, "not-found")
        self._expect_error(server, "/runs/x/nope", 404, "not-found")

    def test_unknown_run_ids_404(self, server):
        self._expect_error(server, "/runs/zzz", 404, "unknown-run")
        self._expect_error(server, "/runs/zzz/result", 404,
                           "unknown-run")
        self._expect_error(server, "/runs/zzz/events", 404,
                           "unknown-run")
        self._expect_error(server, "/runs/a/diff/b", 404,
                           "unknown-run")
        self._expect_error(server, "/runs/zzz/resume", 404,
                           "unknown-run", method="POST")

    def test_run_ids_cannot_leave_the_tenant(self, server):
        """``%2F`` decodes inside one path segment, so a run id like
        ``..%2F..%2F<id>`` would climb from a tenant's registry to the
        default one: every run route answers 404 instead, and no job
        starts."""
        team = {TENANT_HEADER: "t1"}
        ours = _seed_run(server).run_id
        theirs = execute_run(RunRequest(**{**SMALL, "sample_size": 6}),
                             registry=server.registry_for("t1")).run_id
        up = f"..%2F..%2F{ours}"
        gets = [f"/runs/{up}", f"/runs/{up}/result",
                f"/runs/{up}/progress", f"/runs/{up}/alerts",
                f"/runs/{up}/trails", f"/runs/{up}/trail/0",
                f"/runs/{up}/diff/{up}", f"/runs/{theirs}/diff/{up}",
                f"/runs/{up}/events"]
        for path in gets:
            self._expect_error(server, path, 404, "unknown-run",
                               headers=team)
        self._expect_error(server, f"/runs/{up}/resume", 404,
                           "unknown-run", method="POST", headers=team)
        assert server.jobs.list_jobs() == []
        # The tenant's own runs, and the default tenant's, still read.
        assert _get(server, f"/runs/{theirs}", headers=team)[0] == 200
        assert _get(server, f"/runs/{ours}")[0] == 200

    def test_unknown_taxonomy_pool_job_404(self, server):
        self._expect_error(server, "/taxonomies/zzz", 404,
                           "not-found")
        self._expect_error(server, "/pools/zzz", 404, "not-found")
        self._expect_error(server, "/jobs/zzz", 404, "not-found")

    def test_wrong_method_405_with_allow(self, server):
        request = urllib.request.Request(server.url + "/runs",
                                         method="PUT", data=b"{}")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        excinfo.value.close()
        assert excinfo.value.code == 405
        assert excinfo.value.headers["Allow"] == "GET"

    def test_bad_bodies_400(self, server):
        self._expect_error(server, "/runs", 400, "bad-request",
                           method="POST")        # no body at all
        self._expect_error(server, "/runs", 400, "bad-request",
                           method="POST", raw=b"{not json")
        self._expect_error(server, "/runs", 400, "bad-request",
                           method="POST", raw=b"[1, 2]")
        self._expect_error(server, "/runs", 400, "bad-request",
                           method="POST", body={"bogus_field": 1})
        self._expect_error(server, "/runs", 400, "bad-request",
                           method="POST",
                           body={"models": ["No-Such-Model"]})

    def test_oversized_body_413(self, server):
        huge = b"x" * (server.max_body_bytes + 1)
        self._expect_error(server, "/runs", 413, "payload-too-large",
                           method="POST", raw=huge)

    def test_bad_query_values_400(self, server):
        self._expect_error(server, "/pools/ebay?sample=many", 400,
                           "bad-request")
        result = _seed_run(server)
        self._expect_error(server,
                           f"/runs/{result.run_id}/events?limit=x",
                           400, "bad-request")

    def test_hostile_tenant_names_400(self, server):
        for name in ("../escape", "a/b", ".hidden", "x" * 65):
            self._expect_error(server, "/runs", 400, "bad-request",
                               headers={TENANT_HEADER: name})

    def test_corrupt_ledger_500_on_every_read(self, server):
        first, second = (_seed_run(server).run_id for _ in range(2))
        show = f"/runs/{first}"
        assert _get(server, show)[0] == 200          # now cached
        path = server.registry_for(DEFAULT_TENANT).ledger_path(first)
        lines = path.read_bytes().splitlines(keepends=True)
        middle = len(lines) // 2
        lines[middle] = lines[middle][:len(lines[middle]) // 2] + b"\n"
        path.write_bytes(b"".join(lines))
        for _ in range(2):            # a failure is never cached
            for endpoint in (show, f"{show}/trails", f"{show}/trail/0",
                             f"{show}/diff/{second}"):
                self._expect_error(server, endpoint, 500,
                                   "corrupt-ledger")
        status, listing = _get(server, "/runs")
        assert status == 200
        assert {run["run_id"]: run["status"]
                for run in listing}[first] == "invalid"

    def test_corrupt_manifest_500_on_every_read(self, server):
        first, second = (execute_run(
            RunRequest(models=("GPT-4",), taxonomy_keys=("ebay",),
                       sample_size=6),
            registry=server.registry_for(DEFAULT_TENANT)).run_id
            for _ in range(2))
        show = f"/runs/{first}"
        damaged = (show, f"{show}/diff/{second}",
                   f"/runs/{second}/diff/{first}", f"{show}/result",
                   f"{show}/progress")
        path = server.registry_for(DEFAULT_TENANT).manifest_path(first)
        intact = path.read_bytes()

        def check() -> None:
            for _ in range(2):            # a failure is never cached
                for endpoint in damaged:
                    self._expect_error(server, endpoint, 500,
                                       "corrupt-manifest")
            status, listing = _get(server, "/runs")
            assert status == 200
            assert {run["run_id"]: run["status"]
                    for run in listing}[first] == "invalid"
            # These two read the ledger alone.
            for endpoint in (f"{show}/trails", f"{show}/trail/0"):
                assert _get(server, endpoint)[0] == 200

        path.write_text("{not json", encoding="utf-8")
        check()                                      # cold
        path.write_bytes(intact)
        for endpoint in damaged + ("/runs",):        # cache each body
            assert _get(server, endpoint)[0] == 200
        path.write_text("{not json", encoding="utf-8")
        check()                                      # warm


    @pytest.mark.parametrize("document", [
        "{}", "[]", '"x"', {"cells": "x"}, {"created_at": "x"}],
        ids=["empty-object", "list", "string", "cells", "created_at"])
    def test_a_document_that_is_no_manifest_500s_alone(self, server,
                                                       document):
        registry = server.registry_for(DEFAULT_TENANT)
        first, second = (execute_run(
            RunRequest(models=("GPT-4",), taxonomy_keys=("ebay",),
                       sample_size=6), registry=registry).run_id
            for _ in range(2))
        path = registry.manifest_path(first)
        if isinstance(document, dict):
            document = json.dumps({**json.loads(path.read_text()),
                                   **document})
        path.write_text(document, encoding="utf-8")
        assert {row.run_id: row.status
                for row in registry.list_runs()} == {
            first: "invalid", second: "finished"}
        status, listing = _get(server, "/runs")
        assert status == 200
        assert {run["run_id"]: run["status"] for run in listing} == {
            first: "invalid", second: "finished"}
        show = f"/runs/{first}"
        for endpoint in (show, f"{show}/result", f"{show}/diff/{second}",
                         f"/runs/{second}/diff/{first}",
                         f"{show}/progress"):
            self._expect_error(server, endpoint, 500, "corrupt-manifest")
        for endpoint in (f"{show}/trails", f"{show}/trail/0"):
            assert _get(server, endpoint)[0] == 200


# ----------------------------------------------------------------------
# Connections: no client holds a thread, no response waits on an ACK
# ----------------------------------------------------------------------
class TestConnections:
    def test_idle_connection_is_closed(self, server, monkeypatch):
        from repro.serve import app
        assert app._Handler.timeout == app.CONNECTION_TIMEOUT_S
        monkeypatch.setattr(app._Handler, "timeout", 0.2)
        with socket.create_connection((server.host, server.port),
                                      timeout=10) as sock:
            started = time.monotonic()
            assert sock.recv(1) == b""       # the server hung up
            assert time.monotonic() - started < 5.0

    def test_keep_alive_requests_skip_delayed_acks(self, server):
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=30)
        try:
            started = time.perf_counter()
            for _ in range(20):
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert response.status == 200
                response.read()
            elapsed = time.perf_counter() - started
        finally:
            conn.close()
        # A response held back for the client's delayed ACK costs at
        # least 40 ms; twenty of them would take 0.8 s.
        assert elapsed < 0.4
