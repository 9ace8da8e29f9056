"""Exception hierarchy for the repro package.

Every error raised on purpose by this library derives from
:class:`ReproError` so callers can catch library failures with a single
``except`` clause while letting programming errors propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class TaxonomyError(ReproError):
    """Raised when a taxonomy is malformed or an operation is invalid."""


class UnknownNodeError(TaxonomyError):
    """Raised when a node id is not present in a taxonomy."""

    def __init__(self, node_id: str):
        super().__init__(f"unknown node id: {node_id!r}")
        self.node_id = node_id


class ValidationError(TaxonomyError):
    """Raised when taxonomy validation fails.

    Carries the full list of problems so callers can report all of them
    at once instead of fixing them one by one.
    """

    def __init__(self, problems: list[str]):
        super().__init__(
            "taxonomy validation failed: " + "; ".join(problems))
        self.problems = list(problems)


class QuestionGenerationError(ReproError):
    """Raised when a question pool cannot be generated as requested."""


class PromptError(ReproError):
    """Raised when a prompt cannot be built or parsed."""


class ModelError(ReproError):
    """Raised when an LLM backend fails or is misconfigured."""


class ModelTransientError(ModelError):
    """A model call failed in a way that is safe to retry.

    Retry contract: backends (and the engine's fault-injection
    middleware) raise this for failures that do not depend on the
    request itself — rate-limit rejections, dropped connections,
    5xx-style server hiccups.  ``engine.middleware.RetryingModel``
    catches it, sleeps one backoff step, and re-issues the *identical*
    prompt; after ``RetryPolicy.retries`` failed attempts it raises a
    plain :class:`ModelError` with this error as the cause.  Raising
    any other exception type opts a failure out of retrying.
    """


class ModelTimeoutError(ModelTransientError):
    """A model call exceeded its per-call time budget.

    Retry contract: raised by ``engine.middleware.TimeoutModel`` when
    one ``generate`` call runs longer than the configured timeout.  It
    subclasses :class:`ModelTransientError`, so the retry middleware
    treats a timeout exactly like any other transient fault: the same
    prompt is retried on a fresh attempt until the policy's budget is
    exhausted.

    Carries ``elapsed`` and ``timeout`` (seconds) for telemetry.
    """

    def __init__(self, elapsed: float, timeout: float):
        super().__init__(f"model call took {elapsed:.3f}s "
                         f"(timeout {timeout:.3f}s)")
        self.elapsed = elapsed
        self.timeout = timeout


class UnknownModelError(ModelError):
    """Raised when a model name is not present in the registry."""

    def __init__(self, name: str, known: list[str] | None = None):
        hint = f" (known: {', '.join(known)})" if known else ""
        super().__init__(f"unknown model: {name!r}{hint}")
        self.name = name


class ExperimentError(ReproError):
    """Raised when an experiment is configured inconsistently."""


class RunError(ReproError):
    """Raised when a ledgered run cannot be created, read or resumed."""


class UnknownRunError(RunError):
    """Raised when a run id is not present in the run registry."""

    def __init__(self, run_id: str, root: str | None = None):
        hint = f" (registry: {root})" if root else ""
        super().__init__(f"unknown run: {run_id!r}{hint}")
        self.run_id = run_id


class LedgerCorruptError(RunError):
    """Raised when a ledger file is unreadable beyond a torn tail.

    A torn *final* line is the expected signature of a crash mid-append
    and is silently dropped by the replayer; corruption anywhere else
    means the file was tampered with or the disk lied, and replaying
    past it could silently resurrect wrong records — so we refuse.
    """

    def __init__(self, path: str, line_number: int, reason: str):
        super().__init__(
            f"corrupt ledger {path}:{line_number}: {reason}")
        self.path = path
        self.line_number = line_number


class ManifestCorruptError(RunError):
    """Raised when a run's manifest cannot be read or decoded.

    Like a :class:`LedgerCorruptError`, it means the run's own files
    are damaged, not that the caller asked for something wrong.
    """


class CalibrationError(ReproError):
    """Raised when a model profile cannot be calibrated."""
