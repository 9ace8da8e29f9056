"""Check that a finished run's books agree.

Usage (the runs root is ``REPRO_RUNS_DIR``, as for ``repro``)::

    PYTHONPATH=src python scripts/books_agree.py RUN_ID

``repro watch --once --json`` and ``repro obs cost --json`` sum the
run's ledger records; the stats of ``repro runs show --json`` are what
the run's telemetry booked as it ran.  A run with trails has a fourth
book: the billed totals of ``repro obs trails --json``, which the
telemetry is folded from, so the two must agree on any such run,
whatever its shape.

The records count each question's tokens once, as if it made one
backend call.  So they equal what was billed only when the trails show
no cache hit or coalesced follower (which bill nothing) and no retry
(which re-sends its prompt); a run without trails is held to that
too, as a sequential run with no cache must meet it.  When it holds,
every book must give the same questions, prompt tokens, completion
tokens and cost, exactly.  Exits 1 when they do not.
"""

from __future__ import annotations

import json
import subprocess
import sys

TELEMETRY = "runs show (telemetry)"
TRAILS = "obs trails (trails)"


def _view(*argv: str) -> dict:
    done = subprocess.run([sys.executable, "-m", "repro", *argv,
                           "--json"], capture_output=True, text=True,
                          check=True)
    return json.loads(done.stdout)


def main(run_id: str) -> int:
    watch = _view("watch", run_id, "--once")
    cost = _view("obs", "cost", run_id)
    stats = _view("runs", "show", run_id)["stats"]
    trails = _view("obs", "trails", run_id)["totals"]
    books = {
        "watch (records)": (
            watch["questions_done"], watch["prompt_tokens"],
            watch["completion_tokens"], watch["cost_nanos"]),
        "obs cost (records)": (
            sum(cell["questions"] for cell in cost["cells"]),
            cost["totals"]["prompt_tokens"],
            cost["totals"]["completion_tokens"],
            cost["totals"]["cost_nanos"]),
        TELEMETRY: (
            stats["records"], stats["prompt_tokens"],
            stats["completion_tokens"], stats["cost_nanos"]),
    }
    agreeing = list(books)
    if trails["with_trail"]:
        billed = trails["cost"]
        books[TRAILS] = (
            trails["with_trail"], billed["billed_prompt_tokens"],
            billed["billed_completion_tokens"], billed["cost_nanos"])
        agreeing = list(books)
        if (trails["cache"]["hits"] or trails["coalesce"]["followers"]
                or trails["retry"]["retried"]):
            agreeing = [TELEMETRY, TRAILS]
    for name, (questions, prompt, completion, nanos) in books.items():
        print(f"{name:<22} questions {questions:>7}  prompt tokens "
              f"{prompt:>9}  completion tokens {completion:>9}  "
              f"cost_nanos {nanos:>13}")
    if len({books[name] for name in agreeing}) != 1:
        print(f"books_agree: run {run_id}'s books disagree "
              f"({', '.join(agreeing)} must agree)")
        return 1
    print(f"books_agree: run {run_id}'s {', '.join(agreeing)} agree")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
