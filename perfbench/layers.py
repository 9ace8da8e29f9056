"""Per-layer attribution for traced benchmark runs.

A :class:`Fold` wraps public functions of the program's layers from
outside (no file under ``src/`` changes) and folds every wrapped call
into per-layer counters: calls, total time and *self* time — the call's
duration minus the part spent in nested wrapped calls on the same
thread.  Self times of all layers on the thread that owns the result
sum to at most that thread's wall time; the remainder is the
unattributed share.

Only traced runs install the wrappers, so end-to-end numbers from
untraced runs never pay for them.
"""

from __future__ import annotations

import functools
import resource
import sys
import threading
import time
from collections import Counter

#: (dotted owner, attribute, layer) for every wrapped entry point.
#: Owners are classes or modules; module functions are also replaced
#: in every ``repro`` module that imported them by name.
WRAPPED: tuple[tuple[str, str, str], ...] = (
    ("repro.store.artifacts:ArtifactStore", "get_or_build", "store.load"),
    ("repro.questions.pools", "generate_pools", "store.build"),
    ("repro.generators.registry", "build_taxonomy",
     "generators.build_taxonomy"),
    ("repro.llm.oracle:TaxonomyOracle", "resolve", "llm.oracle.resolve"),
    ("repro.llm.oracle:TaxonomyOracle", "taxonomy", "llm.oracle.taxonomy"),
    ("repro.llm.prompting", "build_prompt", "llm.prompting.render"),
    ("repro.llm.simulated:SimulatedLLM", "generate", "llm.simulated"),
    ("repro.llm.parsing", "parse_answer", "llm.parsing.parse"),
    ("repro.obs.cost", "count_tokens", "obs.cost.count"),
    ("repro.core.runner:EvaluationRunner", "ask", "core.runner.ask"),
    ("repro.obs.export:JsonlSpanSink", "__call__", "obs.tracer.sink"),
    ("repro.runs.ledger:RunLedger", "run_started", "runs.ledger.append"),
    ("repro.runs.ledger:RunLedger", "cell_started", "runs.ledger.append"),
    ("repro.runs.ledger:RunLedger", "record", "runs.ledger.append"),
    ("repro.runs.ledger:RunLedger", "cell_finished", "runs.ledger.append"),
    ("repro.runs.ledger:RunLedger", "run_finished", "runs.ledger.append"),
    ("repro.dist.worker:ShardLedger", "shard_started",
     "runs.ledger.append"),
    ("repro.dist.worker:ShardLedger", "shard_finished",
     "runs.ledger.append"),
    ("os", "fsync", "runs.ledger.fsync"),
    ("repro.engine.scheduler:EvaluationEngine", "run",
     "engine.scheduler.run"),
    ("repro.engine.batching:BatchingModel", "generate",
     "engine.batching.generate"),
    ("repro.obs.trail:TrailContext", "freeze", "obs.trail.freeze"),
    ("repro.obs.trail", "trail_from_dict", "obs.trail.decode"),
    ("repro.dist.planner", "plan_shards", "dist.planner.plan"),
    ("repro.dist.merge", "merge_run", "dist.merge.merge"),
    ("repro.runs.ledger", "replay_ledger", "runs.ledger.replay"),
    ("repro.runs.registry:RunRegistry", "list_runs", "runs.registry.list"),
)


def _resolve(dotted: str):
    module_name, _, attr = dotted.partition(":")
    __import__(module_name)
    owner = sys.modules[module_name]
    return getattr(owner, attr) if attr else owner


class Fold:
    """Thread-aware self-time accounting over wrapped calls."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object, bool]] = []
        self.reset()

    def reset(self) -> None:
        """Zero every counter (wrappers stay installed)."""
        with self._lock:
            #: (layer, on_main_thread) -> calls / total s / self s.
            self.calls: Counter = Counter()
            self.total_s: Counter = Counter()
            self.self_s: Counter = Counter()
            #: Distinct taxonomy keys the oracle asked for (and built).
            self.oracle_keys: set[str] = set()

    # ------------------------------------------------------------------
    def timed(self, layer: str, fn, on_call=None):
        """``fn`` wrapped so each call lands in ``layer``."""
        fold = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            stack = fold._stack()
            frame = [0.0]
            stack.append(frame)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                key = (layer, threading.current_thread()
                       is threading.main_thread())
                with fold._lock:
                    fold.calls[key] += 1
                    fold.total_s[key] += elapsed
                    fold.self_s[key] += elapsed - frame[0]

        return wrapper

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ------------------------------------------------------------------
    def patch(self, owner, name: str, wrapper) -> None:
        """Replace ``owner.name`` (and by-name imports of a module
        function) with ``wrapper``; :meth:`uninstall` restores them."""
        original = getattr(owner, name)
        if isinstance(owner, type):
            self._patches.append((owner, name, original,
                                  name in owner.__dict__))
            setattr(owner, name, wrapper)
            return
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if namespace is None or namespace.get(name) is not original:
                continue
            if module is owner or module.__name__.startswith("repro"):
                self._patches.append((module, name, original, True))
                setattr(module, name, wrapper)

    def install(self) -> "Fold":
        """Wrap every entry point in :data:`WRAPPED`."""
        # Deferred so untraced processes never import the wrapped set.
        import repro.cli  # noqa: F401  (pulls in every wrapped module)
        import repro.serve.app  # noqa: F401
        for dotted, name, layer in WRAPPED:
            owner = _resolve(dotted)
            hook = None
            if layer == "llm.oracle.taxonomy":
                def hook(args):
                    self.oracle_keys.add(args[1])
            self.patch(owner, name,
                       self.timed(layer, getattr(owner, name), hook))
        return self

    def uninstall(self) -> None:
        for owner, name, original, owned in reversed(self._patches):
            if owned:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._patches.clear()

    # ------------------------------------------------------------------
    def count(self, layer: str) -> int:
        return sum(n for (name, _), n in self.calls.items()
                   if name == layer)

    def seconds(self, layer: str, own: bool = True,
                main: bool | None = None) -> float:
        table = self.self_s if own else self.total_s
        return sum(s for (name, on_main), s in table.items()
                   if name == layer and main in (None, on_main))

    def attributed_s(self, main: bool | None = True) -> float:
        """Self time of every layer (on the main thread by default)."""
        return sum(s for (_, on_main), s in self.self_s.items()
                   if main in (None, on_main))

    def snapshot(self) -> dict:
        """JSON form, for folds made in other processes."""
        with self._lock:
            return {"rows": [[layer, main, self.calls[layer, main],
                              self.total_s[layer, main],
                              self.self_s[layer, main]]
                             for layer, main in self.calls],
                    "oracle_keys": sorted(self.oracle_keys)}

    def absorb(self, snapshot: dict, main: bool = False) -> None:
        """Add another process's snapshot; its main thread counts as
        ``main`` here (a shard worker is not this process's main)."""
        with self._lock:
            for layer, on_main, calls, total, own in snapshot["rows"]:
                key = (layer, main and on_main)
                self.calls[key] += calls
                self.total_s[key] += total
                self.self_s[key] += own
            self.oracle_keys.update(snapshot["oracle_keys"])


def peak_rss_mb() -> float:
    """Peak RSS of this process and its waited-for children, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak RSS of a live process (``VmHWM``), in MB; 0 if unknown."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as stream:
            for line in stream:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError, IndexError):
        pass
    return 0.0

