"""The run request: everything that determines a sweep's results.

A :class:`RunRequest` is the durable description of one benchmark
sweep — which models, which taxonomies, which dataset and prompting
settings, at what sample size, seed and template variant, through
which engine shape.  It is what the manifest persists, what the
fingerprint hashes, and what resume replans from; because pools and
the simulated models are pure functions of these fields, two
executions of the same request produce bit-identical records.

The fingerprint reuses :func:`repro.store.fingerprint.code_fingerprint`
so that a change to the generation path (which would change the
questions themselves) lands new runs under a new identity instead of
silently diffing incomparable sweeps against each other.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.errors import RunError
from repro.llm.prompting import PromptSetting
from repro.questions.model import DatasetKind
from repro.store.fingerprint import code_fingerprint

#: Bump when the manifest / ledger event layout changes shape.
LEDGER_SCHEMA_VERSION = 1


@dataclass(frozen=True, slots=True)
class RunRequest:
    """One sweep, fully described.

    ``per_level`` switches the cell space from one level-combined pool
    per taxonomy (Tables 5-7) to one pool per question level
    (Figure 3).  ``workers``/``retries`` describe the engine the run
    is meant to execute under; they cannot change the results (the
    scheduler is deterministic) but they are part of the run's
    identity so a manifest fully reproduces the original invocation.
    """

    dataset: str = DatasetKind.HARD.value
    models: tuple[str, ...] = ("GPT-4",)
    taxonomy_keys: tuple[str, ...] = ("ebay",)
    settings: tuple[str, ...] = (PromptSetting.ZERO_SHOT.value,)
    sample_size: int | None = None
    seed: str = ""
    variant: int = 0
    per_level: bool = False
    workers: int = 1
    retries: int = 3
    batch_size: int = 1
    coalesce: bool = False
    #: Capture per-question provenance trails (repro.obs.trail) and
    #: stamp them onto every ledger record.  Cannot change the scored
    #: payload, but changes the ledger bytes — so it is part of the
    #: fingerprint like every other invocation knob.
    trail: bool = False
    #: Spend ceilings enforced at cell boundaries (None = unlimited).
    #: Like the engine shape they cannot change a completed cell's
    #: results — only where the run stops — but they are part of the
    #: fingerprint so the manifest reproduces the invocation.
    max_cost_usd: float | None = None
    max_tokens: int | None = None

    def __post_init__(self) -> None:
        if self.dataset not in {kind.value for kind in DatasetKind}:
            raise RunError(f"unknown dataset kind: {self.dataset!r}")
        bad = [s for s in self.settings
               if s not in {s.value for s in PromptSetting}]
        if bad or not self.settings:
            raise RunError(f"bad prompt settings: {bad!r}")
        if not self.models or not self.taxonomy_keys:
            raise RunError("a run needs >= 1 model and >= 1 taxonomy")
        if self.workers < 1:
            raise RunError("workers must be at least 1")
        if self.batch_size < 1:
            raise RunError("batch_size must be at least 1")
        if self.max_cost_usd is not None and self.max_cost_usd <= 0:
            raise RunError("max_cost_usd must be positive when set")
        if self.max_tokens is not None and self.max_tokens <= 0:
            raise RunError("max_tokens must be positive when set")

    # ------------------------------------------------------------------
    @property
    def dataset_kind(self) -> DatasetKind:
        return DatasetKind(self.dataset)

    def fingerprint(self) -> str:
        """Content-address of the request (includes generator code)."""
        material = "|".join((
            f"schema={LEDGER_SCHEMA_VERSION}",
            f"code={code_fingerprint()}",
            f"dataset={self.dataset}",
            f"models={','.join(self.models)}",
            f"taxonomies={','.join(self.taxonomy_keys)}",
            f"settings={','.join(self.settings)}",
            f"sample={'cochran' if self.sample_size is None else self.sample_size}",
            f"seed={self.seed}",
            f"variant={self.variant}",
            f"per_level={int(self.per_level)}",
            f"workers={self.workers}",
            f"retries={self.retries}",
            f"batch={self.batch_size}",
            f"coalesce={int(self.coalesce)}",
            f"trail={int(self.trail)}",
            f"max_cost={self.max_cost_usd}",
            f"max_tokens={self.max_tokens}",
        ))
        return hashlib.sha256(material.encode()).hexdigest()[:24]

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        return {
            "dataset": self.dataset,
            "models": list(self.models),
            "taxonomy_keys": list(self.taxonomy_keys),
            "settings": list(self.settings),
            "sample_size": self.sample_size,
            "seed": self.seed,
            "variant": self.variant,
            "per_level": self.per_level,
            "workers": self.workers,
            "retries": self.retries,
            "batch_size": self.batch_size,
            "coalesce": self.coalesce,
            "trail": self.trail,
            "max_cost_usd": self.max_cost_usd,
            "max_tokens": self.max_tokens,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RunRequest":
        try:
            return cls(
                dataset=payload["dataset"],
                models=tuple(payload["models"]),
                taxonomy_keys=tuple(payload["taxonomy_keys"]),
                settings=tuple(payload["settings"]),
                sample_size=payload.get("sample_size"),
                seed=payload.get("seed", ""),
                variant=payload.get("variant", 0),
                per_level=payload.get("per_level", False),
                workers=payload.get("workers", 1),
                retries=payload.get("retries", 3),
                batch_size=payload.get("batch_size", 1),
                coalesce=payload.get("coalesce", False),
                trail=payload.get("trail", False),
                max_cost_usd=payload.get("max_cost_usd"),
                max_tokens=payload.get("max_tokens"),
            )
        except (KeyError, TypeError) as exc:
            raise RunError(
                f"malformed run-request payload: {exc}") from exc
